"""Tests for the command line interface."""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from cpcompat import cli
from cpcompat.acceptance import evaluate
from cpcompat.cli import main
from cpcompat.comparison import compare
from cpcompat.merger import merge
from cpcompat.model import ComparisonMode
from cpcompat.parser import MAX_DEPTH, Severity, parse_policy, render_policy

from strategies import chain_text, limit_documents, modes


def run_module(*arguments: str, text: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cpcompat", *arguments],
        capture_output=True,
        text=text,
    )


def run_on_closed_pipe(*arguments: str, closed: tuple[str, ...]) -> subprocess.CompletedProcess:
    """Runs the module with the streams named in ``closed`` on one pipe whose
    read end is closed, and captures the others.

    Stdout and stderr are block-buffered, as by default on a pipe, so the
    interpreter's own flush at exit meets the closed pipe too.
    """
    environment = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {name: write_end if name in closed else subprocess.PIPE for name in ("stdout", "stderr")}
    try:
        return subprocess.run(
            [sys.executable, "-m", "cpcompat", *arguments], text=True, env=environment, **streams
        )
    finally:
        os.close(write_end)


@pytest.fixture
def warned_file(tmp_path):
    """A policy with three MAIN_SECTION_NOT_CAPS and two DEPTH_EXCEEDS_4
    warnings, interleaved."""
    file = tmp_path / "warn.txt"
    file.write_text(
        "1 top\n2 next\n3 LAST\n3.1 A\n3.1.1 B\n3.1.1.1 C\n3.1.1.1.1 D\n3.1.1.1.2 E\n4 end\n",
        encoding="utf-8",
    )
    return file


@pytest.fixture
def policy_files(tmp_path, worked_policy_a_text, worked_policy_b_text):
    file_a = tmp_path / "a.txt"
    file_b = tmp_path / "b.txt"
    file_a.write_text(worked_policy_a_text, encoding="utf-8")
    file_b.write_text(worked_policy_b_text, encoding="utf-8")
    return file_a, file_b


class TestValidate:
    def test_valid_file(self, tmp_path, sample_policy_text, capsys):
        file = tmp_path / "ok.txt"
        file.write_text(sample_policy_text, encoding="utf-8")
        assert main(["validate", str(file)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "valid" in captured.err

    def test_warnings_do_not_fail_validation(self, tmp_path, capsys):
        file = tmp_path / "warn.txt"
        file.write_text("1 lowercase title\n", encoding="utf-8")
        assert main(["validate", str(file)]) == 0
        assert "MAIN_SECTION_NOT_CAPS" in capsys.readouterr().err

    def test_parse_errors_exit_2(self, tmp_path, capsys):
        file = tmp_path / "bad.txt"
        file.write_text("1 TOP\n1 TOP\n", encoding="utf-8")
        assert main(["validate", str(file)]) == 2
        captured = capsys.readouterr()
        assert "DUPLICATE_SECTION" in captured.err
        assert "line 2" in captured.err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.txt")]) == 1
        assert "absent.txt" in capsys.readouterr().err

    def test_unicode_whitespace_in_headings(self, tmp_path):
        # Text pasted from a word processor carries no-break and em spaces.
        file = tmp_path / "pasted.txt"
        file.write_text("1 \u00a0TITLE\n1.1 Scope\u2003 3\na) MUST x\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "cpcompat", "validate", str(file)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert "Traceback" not in result.stderr
        assert "valid" in result.stderr

    def test_overlong_section_number_exits_2(self, tmp_path):
        file = tmp_path / "huge.txt"
        file.write_text("1" * 4301 + " TOP\n", encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "cpcompat", "validate", str(file)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert "BAD_SECTION_NUMBER" in result.stderr

    def test_non_utf8_exits_2(self, tmp_path, capsys):
        file = tmp_path / "binary.txt"
        file.write_bytes(b"1 TOP\n\xff\xfe broken\n")
        assert main(["validate", str(file)]) == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_lists_every_diagnostic(self, warned_file, capsys):
        assert main(["validate", str(warned_file)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[1:3] for line in lines[:-1]] == [
            ["line 1", "WARNING MAIN_SECTION_NOT_CAPS"],
            ["line 2", "WARNING MAIN_SECTION_NOT_CAPS"],
            ["line 7", "WARNING DEPTH_EXCEEDS_4"],
            ["line 8", "WARNING DEPTH_EXCEEDS_4"],
            ["line 9", "WARNING MAIN_SECTION_NOT_CAPS"],
        ]
        assert lines[-1] == f"{warned_file}: valid, 9 paragraphs, 5 warnings"

    def test_byte_order_mark_is_ignored(self, tmp_path, sample_policy_text, capsys):
        file = tmp_path / "bom.txt"
        file.write_text(sample_policy_text, encoding="utf-8-sig")
        assert file.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["validate", str(file)]) == 0
        assert "ERROR" not in capsys.readouterr().err


class TestCompare:
    def test_json_on_stdout(self, policy_files, capsys):
        file_a, file_b = policy_files
        assert main(["compare", str(file_a), str(file_b)]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["overall_weighted"] == 32.5
        assert data["mode"] == "merge"
        assert data["policy_a_name"] == "a"
        assert data["policy_b_name"] == "b"

    def test_human_summary_on_stderr(self, policy_files, capsys):
        # The header and both overall scores; each section's score is in
        # the report only.
        file_a, file_b = policy_files
        assert main(["compare", str(file_a), str(file_b)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "a vs b (merge semantics)",
            "overall weighted:   32.50",
            "overall unweighted: 32.50",
        ]

    def test_one_line_per_diagnostic_code(self, warned_file, capsys):
        assert main(["validate", str(warned_file)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert main(["compare", str(warned_file), str(warned_file)]) == 0
        folded = [lines[0] + " (and 2 more)", lines[2] + " (and 1 more)"]
        assert capsys.readouterr().err.splitlines()[:4] == folded * 2

    def test_errors_are_one_line_per_code_too(self, tmp_path, policy_files, capsys):
        file = tmp_path / "bad.txt"
        file.write_text("1 TOP\n1 TOP\n2 NEXT\n2 NEXT\n", encoding="utf-8")
        assert main(["compare", str(file), str(policy_files[1])]) == 2
        assert capsys.readouterr().err == (
            f"{file}: line 2: ERROR DUPLICATE_SECTION: section 1 already defined (and 1 more)\n"
        )

    def test_acquire_mode(self, policy_files, capsys):
        file_a, file_b = policy_files
        assert main(["compare", str(file_a), str(file_b), "--mode", "acquire"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mode"] == "acquire"
        assert abs(data["overall_weighted"] - 130.0 / 3.0) <= 1e-9

    def test_report_written_to_file(self, policy_files, tmp_path, capsys):
        file_a, file_b = policy_files
        out = tmp_path / "report.json"
        assert main(["compare", str(file_a), str(file_b), "--report", str(out)]) == 0
        assert capsys.readouterr().out == ""
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["overall_weighted"] == 32.5

    def test_file_name_that_is_not_utf8_names_the_policy_with_fffd(self, policy_files, tmp_path, capsys):
        _, file_b = policy_files
        file_a = tmp_path / os.fsdecode(b"\xff.txt")
        file_a.write_text(file_b.read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["compare", str(file_a), str(file_b), "--report", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["policy_a_name"] == "\ufffd"
        capsys.readouterr()
        assert main(["compare", str(file_a), str(file_b)]) == 0
        assert json.loads(capsys.readouterr().out)["policy_a_name"] == "\ufffd"

    def test_rejecting_rules_exit_3(self, policy_files, tmp_path, capsys):
        file_a, file_b = policy_files
        rules = tmp_path / "rules.txt"
        rules.write_text("overall > 90\n", encoding="utf-8")
        assert main(["compare", str(file_a), str(file_b), "--rules", str(rules)]) == 3
        captured = capsys.readouterr()
        assert "rejected" in captured.err
        # The report is still produced; rejection is a result, not an error.
        assert json.loads(captured.out)["overall_weighted"] == 32.5

    def test_passing_rules_exit_0(self, policy_files, tmp_path, capsys):
        file_a, file_b = policy_files
        rules = tmp_path / "rules.txt"
        rules.write_text("overall > 30\nparagraph 1 > 30\n", encoding="utf-8")
        assert main(["compare", str(file_a), str(file_b), "--rules", str(rules)]) == 0
        assert "accepted" in capsys.readouterr().err

    def test_parse_error_in_either_file_exits_2(self, policy_files, tmp_path, capsys):
        file_a, _ = policy_files
        bad = tmp_path / "bad.txt"
        bad.write_text("Connection AND\n", encoding="utf-8")
        assert main(["compare", str(file_a), str(bad)]) == 2
        assert "CONNECTION_BEFORE_SECTION" in capsys.readouterr().err

    def test_missing_input_exits_1(self, policy_files, tmp_path):
        file_a, _ = policy_files
        assert main(["compare", str(file_a), str(tmp_path / "nope.txt")]) == 1

    def test_missing_b_outranks_non_utf8_a(self, tmp_path, capsys):
        # A's decode error is a parse failure; B's absence is still reported
        # and, being an I/O error, decides the exit code.
        file_a = tmp_path / "binary.txt"
        file_a.write_bytes(b"1 TOP\n\xff broken\n")
        assert main(["compare", str(file_a), str(tmp_path / "nope.txt")]) == 1
        err = capsys.readouterr().err
        assert "not valid UTF-8" in err
        assert "nope.txt" in err

    def test_parse_errors_of_both_files_are_printed(self, tmp_path, capsys):
        file_a = tmp_path / "a.txt"
        file_b = tmp_path / "b.txt"
        file_a.write_text("1 TOP\n1 TOP\n", encoding="utf-8")
        file_b.write_text("Connection AND\n", encoding="utf-8")
        assert main(["compare", str(file_a), str(file_b)]) == 2
        err = capsys.readouterr().err
        assert "DUPLICATE_SECTION" in err
        assert "CONNECTION_BEFORE_SECTION" in err

    def test_bad_rules_syntax_exits_4(self, policy_files, tmp_path, capsys):
        file_a, file_b = policy_files
        rules = tmp_path / "rules.txt"
        rules.write_text("overall beats 80\n", encoding="utf-8")
        assert main(["compare", str(file_a), str(file_b), "--rules", str(rules)]) == 4
        assert "line 1" in capsys.readouterr().err

    def test_rules_file_byte_order_mark_is_ignored(self, policy_files, tmp_path, capsys):
        file_a, file_b = policy_files
        rules = tmp_path / "rules.txt"
        rules.write_text("overall > 30\nparagraph 1 > 30\n", encoding="utf-8-sig")
        assert main(["compare", str(file_a), str(file_b), "--rules", str(rules)]) == 0
        assert "verdict: accepted" in capsys.readouterr().err

    def test_missing_rules_file_exits_4(self, policy_files, tmp_path):
        file_a, file_b = policy_files
        missing = tmp_path / "norules.txt"
        assert main(["compare", str(file_a), str(file_b), "--rules", str(missing)]) == 4

    def test_unknown_rule_path_exits_4(self, policy_files, tmp_path, capsys):
        file_a, file_b = policy_files
        rules = tmp_path / "rules.txt"
        rules.write_text("paragraph 7.7 > 10\n", encoding="utf-8")
        assert main(["compare", str(file_a), str(file_b), "--rules", str(rules)]) == 4
        assert "7.7" in capsys.readouterr().err


class TestMerge:
    def test_merged_policy_written(self, policy_files, tmp_path, capsys):
        file_a, file_b = policy_files
        out = tmp_path / "merged.txt"
        assert main(["merge", str(file_a), str(file_b), "--out", str(out)]) == 0
        merged, diagnostics = parse_policy(out.read_text(encoding="utf-8"))
        assert merged is not None, diagnostics
        phrases = [o.phrase for o in merged.roots[0].options]
        assert phrases == ["a", "b", "c", "d", "e"]

    def test_merged_policy_to_stdout(self, policy_files, capsys):
        file_a, file_b = policy_files
        assert main(["merge", str(file_a), str(file_b)]) == 0
        out = capsys.readouterr().out
        merged, _ = parse_policy(out)
        assert merged is not None
        assert "// unmatched: from B: d" in out

    def test_empty_draft_is_empty_on_stdout_too(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "merged.txt"
        assert main(["merge", str(empty), str(empty), "--out", str(out)]) == 0
        assert out.read_bytes() == b""
        result = run_module("merge", str(empty), str(empty), text=False)
        assert result.returncode == 0, result.stderr
        assert result.stdout == b""

    @pytest.mark.parametrize("command, flag", [("merge", "--out"), ("compare", "--report")])
    def test_stdout_gets_the_bytes_of_the_output_file(self, policy_files, tmp_path, command, flag):
        file_a, file_b = policy_files
        out = tmp_path / "written"
        assert main([command, str(file_a), str(file_b), flag, str(out)]) == 0
        result = run_module(command, str(file_a), str(file_b), text=False)
        assert result.returncode == 0, result.stderr
        assert result.stdout == out.read_bytes()

    @pytest.mark.parametrize("command", ["compare", "merge"])
    def test_closed_stdout_exits_1(self, policy_files, command):
        result = run_on_closed_pipe(command, *map(str, policy_files), closed=("stdout",))
        # One line about stdout, and nothing after it from the exit flush.
        lines = result.stderr.splitlines()
        assert result.returncode == 1
        assert [line for line in lines if line.startswith("<stdout>: ")] == [lines[-1]]
        assert "Broken pipe" in lines[-1]

    @pytest.mark.parametrize("command", ["validate", "compare", "merge"])
    def test_closed_stderr_keeps_the_exit_code(self, policy_files, command):
        files = map(str, policy_files[:1] if command == "validate" else policy_files)
        result = run_on_closed_pipe(command, *files, closed=("stderr",))
        assert result.returncode == 0
        if command != "validate":
            assert result.stdout

    @pytest.mark.parametrize("command", ["compare", "merge"])
    def test_closed_stdout_and_stderr_exit_1(self, policy_files, command):
        result = run_on_closed_pipe(command, *map(str, policy_files), closed=("stdout", "stderr"))
        assert result.returncode == 1

    def test_rejection_leaves_no_output_file(self, policy_files, tmp_path):
        file_a, file_b = policy_files
        rules = tmp_path / "rules.txt"
        rules.write_text("overall >= 99\n", encoding="utf-8")
        out = tmp_path / "merged.txt"
        code = main(
            ["merge", str(file_a), str(file_b), "--rules", str(rules), "--out", str(out)]
        )
        assert code == 3
        assert not out.exists()

    def test_acquire_keeps_acquirer_text(self, policy_files, tmp_path, capsys):
        file_a, file_b = policy_files
        assert main(["merge", str(file_a), str(file_b), "--mode", "acquire"]) == 0
        merged, _ = parse_policy(capsys.readouterr().out)
        original, _ = parse_policy(file_a.read_text(encoding="utf-8"))
        assert merged.roots == original.roots


class TestSizeLimits:
    def test_merge_past_26_options_writes_the_draft(self, tmp_path):
        file = tmp_path / "f30.txt"
        file.write_text(
            "1 WIDE\n" + "".join(f"MUST measure {i}\n" for i in range(30)), encoding="utf-8"
        )
        out = tmp_path / "merged.txt"
        result = run_module("merge", str(file), str(file), "--out", str(out))
        assert result.returncode == 0, result.stderr
        draft = out.read_text(encoding="utf-8")
        assert draft.splitlines()[-1] == "ad) MUST measure 29"
        original, _ = parse_policy(file.read_text(encoding="utf-8"))
        reparsed, diagnostics = parse_policy(draft)
        assert diagnostics == []
        assert reparsed.roots == original.roots

    def test_chain_at_depth_limit_goes_through_every_command(self, tmp_path):
        file = tmp_path / "chain.txt"
        file.write_text(chain_text(MAX_DEPTH, option="MUST hold\n"), encoding="utf-8")
        original, _ = parse_policy(file.read_text(encoding="utf-8"))
        assert original is not None
        assert max(len(p.path.segments) for p in original.walk()) == MAX_DEPTH
        reparsed, _ = parse_policy(render_policy(original))
        assert original.roots == reparsed.roots
        assert main(["validate", str(file)]) == 0
        for mode in ComparisonMode:
            assert main(["compare", str(file), str(file), "--mode", mode.value]) == 0
            out = tmp_path / f"merged-{mode.value}.txt"
            assert main(["merge", str(file), str(file), "--mode", mode.value, "--out", str(out)]) == 0
            merged, _ = parse_policy(out.read_text(encoding="utf-8"))
            assert merged is not None
            assert merged.roots == original.roots

    def test_chain_past_depth_limit_exits_2(self, tmp_path):
        file = tmp_path / "chain.txt"
        file.write_text(chain_text(MAX_DEPTH + 1), encoding="utf-8")
        result = run_module("validate", str(file))
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert f"line {MAX_DEPTH + 1}: ERROR DEPTH_LIMIT" in result.stderr

    @settings(max_examples=200, deadline=None)
    @given(text_a=limit_documents(), text_b=limit_documents(), mode=modes())
    def test_merge_renders_or_is_refused_by_a_documented_route(self, text_a, text_b, mode):
        # Exit 2 only for DEPTH_LIMIT, and otherwise a draft that reparses
        # equal, however many options a merged section has.
        policy_a, diagnostics_a = parse_policy(text_a)
        policy_b, diagnostics_b = parse_policy(text_b)
        merged = None
        if policy_a is not None and policy_b is not None:
            report = compare(policy_a, policy_b, mode)
            merged = merge(policy_a, policy_b, report, evaluate(report, []))
        with tempfile.TemporaryDirectory() as work:
            file_a, file_b, out = (Path(work) / name for name in ("a.txt", "b.txt", "out.txt"))
            file_a.write_text(text_a, encoding="utf-8")
            file_b.write_text(text_b, encoding="utf-8")
            quiet = io.StringIO()
            with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                code = main(
                    ["merge", str(file_a), str(file_b), "--mode", mode.value, "--out", str(out)]
                )
            if merged is None:
                assert code == 2
                errors = {
                    d.code for d in diagnostics_a + diagnostics_b if d.severity is Severity.ERROR
                }
                assert errors == {"DEPTH_LIMIT"}
            else:
                assert code == 0
                reparsed, _ = parse_policy(out.read_text(encoding="utf-8"))
                assert reparsed is not None
                assert merged.roots == reparsed.roots


class TestExitCodeTable:
    def test_documented_codes_are_the_exit_constants(self):
        # CLI.md's exit-code table, less its retired codes, names exactly the
        # codes the cli module defines.
        text = (Path(__file__).resolve().parents[1] / "CLI.md").read_text(encoding="utf-8")
        table = text.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
        documented = {
            int(code)
            for code, meaning in re.findall(r"^\| (\d+) \| (.*) \|$", table, re.MULTILINE)
            if not meaning.startswith("Retired")
        }
        defined = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
        assert documented == defined


class TestInternalErrors:
    def test_unexpected_exception_exits_6_with_one_line(self, monkeypatch, capsys, policy_files):
        def broken(*args, **kwargs):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "compare", broken)
        file_a, file_b = policy_files
        assert main(["compare", str(file_a), str(file_b)]) == cli.EXIT_INTERNAL == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cpcompat: internal error: RuntimeError: boom second line\n"
        assert "Traceback" not in captured.err


def _outline_text(side: str) -> str:
    """One side of a generated pair: three chains of sections six deep,
    each with options, a comment and a connective. The sides differ in
    keywords, a title, connectives and a section only A has."""
    lines = []
    for root in (1, 2, 3):
        path = [root]
        lines.append(f"{root} PART {root}")
        for depth in range(2, 7):
            path.append(depth % 3 + 1)
            if side == "b" and root == 2 and depth == 6:
                break
            title = "Renamed" if side == "b" and depth == 3 else f"Level {depth}"
            lines.append(f"{'.'.join(map(str, path))} {title} {depth}")
            lines.append(f"// from {side}")
            keyword = "MUST" if side == "a" else "RECOMMENDED"
            lines.append(f"a) {keyword} keep logs for {depth} years")
            lines.append("rotate keys")
            lines.append(f"Connection {'AND' if side == 'a' or depth % 2 else 'OR'}")
    return "\n".join(lines) + "\n"


@pytest.fixture
def collector_state():
    """Starts the test with the collector enabled and restores its state after."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    if not enabled:
        gc.disable()


class TestCollectorPause:
    """main pauses the cyclic collector for one command and puts its state
    back however the command ends."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "rules, broken, expected",
        [
            (None, False, 0),
            ("overall > 90\n", False, 3),
            ("overall beats 80\n", False, 4),
            (None, True, 6),
        ],
        ids=["ok", "rejected", "bad-rules", "internal-error"],
    )
    def test_state_is_restored(
        self, enabled, rules, broken, expected, policy_files, tmp_path, monkeypatch, collector_state
    ):
        file_a, file_b = policy_files
        argv = ["compare", str(file_a), str(file_b)]
        if rules is not None:
            (tmp_path / "rules.txt").write_text(rules, encoding="utf-8")
            argv += ["--rules", str(tmp_path / "rules.txt")]
        during = []
        cli_compare = cli.compare

        def compare(*args, **kwargs):
            during.append(gc.isenabled())
            if broken:
                raise RuntimeError("boom")
            return cli_compare(*args, **kwargs)

        monkeypatch.setattr(cli, "compare", compare)
        if not enabled:
            gc.disable()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == expected
        assert gc.isenabled() is enabled
        assert during == [False]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_is_restored_on_parse_errors(self, enabled, tmp_path, collector_state):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 TOP\n1 TOP\n", encoding="utf-8")
        if not enabled:
            gc.disable()
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["compare", str(bad), str(bad)]) == 2
        assert gc.isenabled() is enabled

    def test_commands_leave_no_cyclic_garbage_of_their_own(self, tmp_path, collector_state):
        file_a, file_b = tmp_path / "a.txt", tmp_path / "b.txt"
        file_a.write_text(_outline_text("a"), encoding="utf-8")
        file_b.write_text(_outline_text("b"), encoding="utf-8")
        commands = [
            ["compare", str(file_a), str(file_b), "--report", str(tmp_path / "report.json")],
            ["merge", str(file_a), str(file_b), "--out", str(tmp_path / "draft.txt")],
        ]
        gc.collect()
        saved_garbage = gc.garbage[:]
        saved_flags = gc.get_debug()
        try:
            gc.garbage.clear()
            gc.set_debug(gc.DEBUG_SAVEALL)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                for argv in commands:
                    assert main(argv) == 0
            # A collection after the commands keeps every object it finds in a
            # cycle; none may be one cpcompat made.
            gc.collect()
            ours = [o for o in gc.garbage if type(o).__module__.partition(".")[0] == "cpcompat"]
        finally:
            gc.set_debug(saved_flags)
            gc.garbage[:] = saved_garbage
        assert "DEPTH_EXCEEDS_4" in err.getvalue()
        assert "TITLE_MISMATCH" in (tmp_path / "report.json").read_text(encoding="utf-8")
        assert "// unmatched: from A" in (tmp_path / "draft.txt").read_text(encoding="utf-8")
        assert ours == []


class TestEntryPoints:
    def test_module_invocation(self, tmp_path, sample_policy_text):
        file = tmp_path / "ok.txt"
        file.write_text(sample_policy_text, encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "cpcompat", "validate", str(file)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0

    def test_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        assert capsys.readouterr().err.startswith("usage: cpcompat")

    def test_no_arguments_shows_usage(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err.startswith("usage: cpcompat")

    @pytest.mark.parametrize("argv", [["--help"], ["compare", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: cpcompat")

    @pytest.mark.parametrize(
        "argv, closed, expected",
        [
            (["--help"], "stdout", 0),
            (["compare", "--help"], "stdout", 0),
            (["bogus"], "stderr", 2),
            ([], "stderr", 2),
        ],
        ids=["help", "compare-help", "bogus", "no-arguments"],
    )
    def test_argparse_output_on_a_closed_pipe_keeps_its_code(self, argv, closed, expected):
        result = run_on_closed_pipe(*argv, closed=(closed,))
        assert result.returncode == expected
        assert "Exception ignored" not in (result.stderr or "")
