"""Tests for the command line interface.

Each example of a command is a row of the run table, asserted in full: its
input files, its argv, and its exit code, stdout, stderr and the files the
run leaves behind, compared in one equality. ``_run`` makes the test of a
row under its own name and records its exit code in ``RUN_CODES``, which
must name every exit code CLI.md documents, less the internal error's.
The tests that need a fresh interpreter (closed pipes, raw stdout bytes)
and the randomized contract property follow the table.
"""

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
from hypothesis import strategies as st

import cpcompat
from cpcompat import cli
from cpcompat.acceptance import RuleError, evaluate, parse_rules
from cpcompat.cli import main
from cpcompat.comparison import compare, report_to_json
from cpcompat.merger import merge
from cpcompat.model import ComparisonMode
from cpcompat.parser import MAX_DEPTH, parse_policy, render_policy

from conftest import SAMPLE_POLICY_TEXT, WORKED_POLICY_A_TEXT, WORKED_POLICY_B_TEXT
from strategies import chain_text, limit_documents, line_soups, modes, policies


def module_environment(environment: dict[str, str]) -> dict[str, str]:
    """``environment`` for a child ``python -m cpcompat``, with the directory
    this process imported cpcompat from first on PYTHONPATH: pytest's
    ``pythonpath`` setting reaches only this process, not its children."""
    path = [str(Path(cpcompat.__file__).resolve().parents[1]), environment.get("PYTHONPATH")]
    return dict(environment, PYTHONPATH=os.pathsep.join(filter(None, path)))


def run_module(*arguments: str, text: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cpcompat", *arguments],
        capture_output=True,
        text=text,
        env=module_environment(dict(os.environ)),
    )


def run_on_closed_pipe(*arguments: str, closed: tuple[str, ...]) -> subprocess.CompletedProcess:
    """Runs the module with the streams named in ``closed`` on one pipe whose
    read end is closed, and captures the others.

    Stdout and stderr are block-buffered, as by default on a pipe, so the
    interpreter's own flush at exit meets the closed pipe too.
    """
    environment = module_environment({k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"})
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
def policy_files(tmp_path, worked_policy_a_text, worked_policy_b_text):
    file_a = tmp_path / "a.txt"
    file_b = tmp_path / "b.txt"
    file_a.write_text(worked_policy_a_text, encoding="utf-8")
    file_b.write_text(worked_policy_b_text, encoding="utf-8")
    return file_a, file_b


def _report(mode, name_a, name_b, weighted, unweighted, rows):
    """The JSON report CLI.md lays out, and the newline after it, with no
    diagnostics; each row is a tuple of the row fields in their order."""
    fields = ("path", "own_score", "child_aggregate", "combined_score", "weight", "match_status")
    report = dict(
        report_version=1, mode=mode, policy_a_name=name_a, policy_b_name=name_b, overall_weighted=weighted,
        overall_unweighted=unweighted, paragraphs=[dict(zip(fields, row)) for row in rows], diagnostics=[],
    )
    return json.dumps(report, indent=2, ensure_ascii=False) + "\n"


def _not_found(name):
    return f"{{dir}}/{name}: [Errno 2] No such file or directory: '{{dir}}/{name}'\n"


# The worked example's files, and what compare and merge make of them: the
# report's rows, the report, the stderr summary (with the verdict) and the
# merge draft; and the pair with a rules file.
WORKED = {"a.txt": WORKED_POLICY_A_TEXT, "b.txt": WORKED_POLICY_B_TEXT}
PAIR = "{dir}/a.txt {dir}/b.txt"
ROWS = [("1", 32.5, None, 32.5, 1, "matched")]
REPORT = _report("merge", "a", "b", 32.5, 32.5, ROWS)
SUMMARY = "a vs b (merge semantics)\noverall weighted:   32.50\noverall unweighted: 32.50\n"
ACCEPTED = SUMMARY + "verdict: accepted\n"
ACQUIRED = "a vs b (acquire semantics)\noverall weighted:   43.33\noverall unweighted: 43.33\n"
DRAFT = (
    "1 CERTIFICATE PROFILE\n// unmatched: from A: c\n// unmatched: from B: d\n// unmatched: from B: e\n"
    "a) MUST a\nb) MUST b\nc) MUST c\nd) RECOMMENDED d\ne) RECOMMENDED e\nConnection AND\n"
)
RULED = PAIR + " --rules {dir}/rules.txt"


def _ruled(rules):
    return {**WORKED, "rules.txt": rules}


# Three MAIN_SECTION_NOT_CAPS and two DEPTH_EXCEEDS_4 warnings, interleaved.
WARNED = {"warn.txt": "1 top\n2 next\n3 LAST\n3.1 A\n3.1.1 B\n3.1.1.1 C\n3.1.1.1.1 D\n3.1.1.1.2 E\n4 end\n"}
WARNINGS = [
    "line 1: WARNING MAIN_SECTION_NOT_CAPS: main section title 'top' is not upper case",
    "line 2: WARNING MAIN_SECTION_NOT_CAPS: main section title 'next' is not upper case",
    "line 7: WARNING DEPTH_EXCEEDS_4: section 3.1.1.1.1 is nested deeper than the standard four levels",
    "line 8: WARNING DEPTH_EXCEEDS_4: section 3.1.1.1.2 is nested deeper than the standard four levels",
    "line 9: WARNING MAIN_SECTION_NOT_CAPS: main section title 'end' is not upper case",
]
BINARY = {"binary.txt": b"1 TOP\n\xff\xfe broken\n"}
NOT_UTF8 = "{dir}/binary.txt: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 6: invalid start byte\n"

# The exit code of every row of the run table.
RUN_CODES = []


def _run(argv, code, out="", err="", files=WORKED, written={}):
    """A test that ``cpcompat argv``, run in a directory that holds
    ``files``, exits with ``code``, writes exactly ``out`` and ``err``, and
    leaves the directory holding ``files`` and ``written`` and nothing
    else. ``{dir}`` stands for the directory; a file is text, written as
    UTF-8, or bytes."""
    RUN_CODES.append(code)

    def test(self, tmp_path, capsys):
        def encoded(content):
            return content if isinstance(content, bytes) else content.encode()

        for name, content in files.items():
            (tmp_path / name).write_bytes(encoded(content))
        here = str(tmp_path)
        result = main([argument.replace("{dir}", here) for argument in argv.split()])
        captured = capsys.readouterr()
        left = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert (result, captured.out, captured.err, left) == (
            code,
            out.replace("{dir}", here),
            err.replace("{dir}", here),
            {name: encoded(content) for name, content in {**files, **written}.items()},
        )

    return test


class TestValidate:
    test_valid_file = _run(
        "validate {dir}/ok.txt", 0, err="{dir}/ok.txt: valid, 7 paragraphs, 0 warnings\n",
        files={"ok.txt": SAMPLE_POLICY_TEXT},
    )
    test_warnings_do_not_fail_validation = _run(
        "validate {dir}/warn.txt", 0,
        err="{dir}/warn.txt: line 1: WARNING MAIN_SECTION_NOT_CAPS: main section title 'lowercase title' is not"
        " upper case\n{dir}/warn.txt: valid, 1 paragraphs, 1 warnings\n",
        files={"warn.txt": "1 lowercase title\n"},
    )
    test_parse_errors_exit_2 = _run(
        "validate {dir}/bad.txt", 2, err="{dir}/bad.txt: line 2: ERROR DUPLICATE_SECTION: section 1 already defined\n",
        files={"bad.txt": "1 TOP\n1 TOP\n"},
    )
    test_missing_file_exits_1 = _run("validate {dir}/absent.txt", 1, err=_not_found("absent.txt"), files={})
    # Text pasted from a word processor carries no-break and em spaces.
    test_unicode_whitespace_in_headings = _run(
        "validate {dir}/pasted.txt", 0, err="{dir}/pasted.txt: valid, 2 paragraphs, 0 warnings\n",
        files={"pasted.txt": "1 \u00a0TITLE\n1.1 Scope\u2003 3\na) MUST x\n"},
    )
    test_overlong_section_number_exits_2 = _run(
        "validate {dir}/huge.txt", 2,
        err="{dir}/huge.txt: line 1: ERROR BAD_SECTION_NUMBER: section number has too many digits\n",
        files={"huge.txt": "1" * 4301 + " TOP\n"},
    )
    test_non_utf8_exits_2 = _run("validate {dir}/binary.txt", 2, err=NOT_UTF8, files=BINARY)
    test_lists_every_diagnostic = _run(
        "validate {dir}/warn.txt", 0,
        err="".join(f"{{dir}}/warn.txt: {line}\n" for line in WARNINGS)
        + "{dir}/warn.txt: valid, 9 paragraphs, 5 warnings\n",
        files=WARNED,
    )
    test_byte_order_mark_is_ignored = _run(
        "validate {dir}/bom.txt", 0, err="{dir}/bom.txt: valid, 7 paragraphs, 0 warnings\n",
        files={"bom.txt": "\ufeff" + SAMPLE_POLICY_TEXT},
    )


class TestCompare:
    test_json_on_stdout = _run(f"compare {PAIR}", 0, REPORT, SUMMARY)
    # The header names both policies and the mode; each section's score is
    # in the report only.
    test_human_summary_on_stderr = _run(
        "compare {dir}/ours.txt {dir}/theirs.txt", 0,
        _report("merge", "ours", "theirs", 75.0, 50.0, [("1", 100.0, None, 100.0, 3, "matched"),
                                                        ("2", 0.0, None, 0.0, 1, "matched")]),
        "ours vs theirs (merge semantics)\noverall weighted:   75.00\noverall unweighted: 50.00\n",
        files={"ours.txt": "1 ONE 3\na) MUST x\n2 TWO\na) MUST y\n", "theirs.txt": "1 ONE\na) MUST x\n2 TWO\n"},
    )
    test_one_line_per_diagnostic_code = _run(
        "compare {dir}/warn.txt {dir}/warn.txt", 0,
        _report("merge", "warn", "warn", 100.0, 100.0, [
            (path, 100.0, 100.0 if path in ("3", "3.1", "3.1.1", "3.1.1.1") else None, 100.0, 1, "both_empty")
            for path in "1 2 3 3.1 3.1.1 3.1.1.1 3.1.1.1.1 3.1.1.1.2 4".split()
        ]),
        f"{{dir}}/warn.txt: {WARNINGS[0]} (and 2 more)\n{{dir}}/warn.txt: {WARNINGS[2]} (and 1 more)\n" * 2
        + "warn vs warn (merge semantics)\noverall weighted:   100.00\noverall unweighted: 100.00\n",
        files=WARNED,
    )
    test_errors_are_one_line_per_code_too = _run(
        "compare {dir}/bad.txt {dir}/b.txt", 2,
        err="{dir}/bad.txt: line 2: ERROR DUPLICATE_SECTION: section 1 already defined (and 1 more)\n",
        files={**WORKED, "bad.txt": "1 TOP\n1 TOP\n2 NEXT\n2 NEXT\n"},
    )
    test_acquire_mode = _run(
        f"compare {PAIR} --mode acquire", 0,
        _report("acquire", "a", "b", 130 / 3, 130 / 3, [("1", 130 / 3, None, 130 / 3, 1, "matched")]), ACQUIRED,
    )
    test_report_written_to_file = _run(
        f"compare {PAIR} --report {{dir}}/report.json", 0, err=SUMMARY, written={"report.json": REPORT}
    )
    test_file_name_that_is_not_utf8_names_the_policy_with_fffd = _run(
        "compare {dir}/\udcff.txt {dir}/b.txt", 0,
        _report("merge", "\ufffd", "b", 32.5, 32.5, ROWS), SUMMARY.replace("a vs", "\ufffd vs"),
        files={"\udcff.txt": WORKED_POLICY_A_TEXT, "b.txt": WORKED_POLICY_B_TEXT},
    )
    # The report is still written in full: rejection is a result, not an error.
    test_rejecting_rules_exit_3 = _run(
        f"compare {RULED}", 3,
        REPORT, SUMMARY + "verdict: rejected\n  score 32.5000 does not satisfy 'overall > 90 weighted'\n",
        files=_ruled("overall > 90\n"),
    )
    test_passing_rules_exit_0 = _run(
        f"compare {RULED}", 0, REPORT, ACCEPTED, files=_ruled("overall > 30\nparagraph 1 > 30\n")
    )
    test_parse_error_in_either_file_exits_2 = _run(
        "compare {dir}/a.txt {dir}/bad.txt", 2,
        err="{dir}/bad.txt: line 1: ERROR CONNECTION_BEFORE_SECTION: Connection line before the first section"
        " heading\n",
        files={**WORKED, "bad.txt": "Connection AND\n"},
    )
    test_missing_input_exits_1 = _run("compare {dir}/a.txt {dir}/nope.txt", 1, err=_not_found("nope.txt"))
    # A's decode error is a parse failure; B's absence is still reported
    # and, being an I/O error, decides the exit code.
    test_missing_b_outranks_non_utf8_a = _run(
        "compare {dir}/binary.txt {dir}/nope.txt", 1, err=NOT_UTF8 + _not_found("nope.txt"), files=BINARY
    )
    test_parse_errors_of_both_files_are_printed = _run(
        f"compare {PAIR}", 2,
        err="{dir}/a.txt: line 2: ERROR DUPLICATE_SECTION: section 1 already defined\n{dir}/b.txt: line 1:"
        " ERROR CONNECTION_BEFORE_SECTION: Connection line before the first section heading\n",
        files={"a.txt": "1 TOP\n1 TOP\n", "b.txt": "Connection AND\n"},
    )
    test_bad_rules_syntax_exits_4 = _run(
        f"compare {RULED}", 4, err="{dir}/rules.txt: line 1: unknown operator 'beats': 'overall beats 80'\n",
        files=_ruled("overall beats 80\n"),
    )
    test_rules_file_byte_order_mark_is_ignored = _run(
        f"compare {RULED}", 0, REPORT, ACCEPTED, files=_ruled("\ufeffoverall > 30\nparagraph 1 > 30\n")
    )
    test_rules_file_that_is_not_utf8_exits_4 = _run(
        f"compare {RULED}", 4,
        err="{dir}/rules.txt: not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte\n",
        files=_ruled(b"overall > 30\n\xff\n"),
    )
    test_missing_rules_file_exits_4 = _run(f"compare {RULED}", 4, err=_not_found("rules.txt"))
    test_unknown_rule_path_exits_4 = _run(
        f"compare {RULED}", 4,
        err="{dir}/rules.txt: rule 'paragraph 7.7 > 10' names section 7.7, which the report does not contain\n",
        files=_ruled("paragraph 7.7 > 10\n"),
    )
    test_unwritable_report_exits_1 = _run(
        f"compare {PAIR} --report {{dir}}/absent/report.json", 1, err=SUMMARY + _not_found("absent/report.json")
    )


class TestMerge:
    test_merged_policy_written = _run(
        f"merge {PAIR} --out {{dir}}/merged.txt", 0, err=ACCEPTED, written={"merged.txt": DRAFT}
    )
    test_merged_policy_to_stdout = _run(f"merge {PAIR}", 0, DRAFT, ACCEPTED)
    test_empty_draft_is_empty_on_stdout_too = _run(
        "merge {dir}/empty.txt {dir}/empty.txt --out {dir}/merged.txt", 0,
        err="empty vs empty (merge semantics)\noverall weighted:   100.00\noverall unweighted: 100.00\n"
        "verdict: accepted\n",
        files={"empty.txt": ""}, written={"merged.txt": ""},
    )
    test_rejection_leaves_no_output_file = _run(
        f"merge {RULED} --out {{dir}}/merged.txt", 3,
        err=SUMMARY + "verdict: rejected\n  score 32.5000 does not satisfy 'overall >= 99 weighted'\n"
        "no unified policy was written\n",
        files=_ruled("overall >= 99\n"),
    )
    test_acquire_keeps_acquirer_text = _run(
        f"merge {PAIR} --mode acquire", 0,
        "1 CERTIFICATE PROFILE\na) MUST a\nb) MUST b\nc) MUST c\nConnection AND\n", ACQUIRED + "verdict: accepted\n",
    )
    test_unwritable_out_exits_1 = _run(
        f"merge {PAIR} --out {{dir}}/absent/merged.txt", 1, err=ACCEPTED + _not_found("absent/merged.txt")
    )

    @pytest.mark.parametrize(
        "command, flag, same",
        [("merge", "--out", None), ("compare", "--report", None), ("merge", "--out", "")],
        ids=["merge---out", "compare---report", "empty-draft"],
    )
    def test_stdout_gets_the_bytes_of_the_output_file(self, policy_files, tmp_path, command, flag, same):
        # The worked pair, or the policy ``same`` compared with itself.
        file_a, file_b = policy_files
        if same is not None:
            file_a.write_text(same, encoding="utf-8")
            file_b = file_a
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


# Policy files: soups of the parser's dispatch edges, rendered trees and
# documents on the size limits; one file in eight ends in bytes that are
# not UTF-8.
_POLICY_FILES = st.tuples(
    st.one_of(line_soups(), policies().map(render_policy), limit_documents()),
    st.sampled_from((b"",) * 21 + (b"\xff", b"\xc3", b"\xed\xa0\x80")),
).map(lambda parts: parts[0].encode() + parts[1])
# Rules files: rules on sections that a drawn policy may or may not have,
# and lines that are blank, comments or refused: thresholds outside
# [0, 100] or in non-ASCII digits, '==' on the overall score, bad section
# numbers, an unknown basis, operator or rule word.
_RULES = st.one_of(
    st.tuples(
        st.just("overall"),
        st.sampled_from(("> 30", ">= 50", "> 90", ">= 100")),
        st.sampled_from(("", "weighted", "unweighted")),
    ),
    st.tuples(
        st.just("paragraph"),
        st.sampled_from(("1", "2", "1.1", "2.1", "7.7")),
        st.sampled_from(("> 30", ">= 50", "> 90", "== 100")),
    ),
).map(" ".join)
_OTHER_LINES = st.sampled_from((
    "", "# note", "overall > 101", "overall > \u0665\u0660", "overall == 100", "paragraph 1.0 > 5",
    "paragraph \u0661 > 5", "overall > 50 both", "overall < 50", "section 1 > 5",
))
_RULES_FILES = st.lists(_RULES | _OTHER_LINES, min_size=1, max_size=3).map("\n".join) | st.none()


def _quietly(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestContract:
    @settings(max_examples=1000, deadline=None)
    @given(file_a=_POLICY_FILES, file_b=_POLICY_FILES, rules=_RULES_FILES, mode=modes())
    def test_commands_end_as_the_library_calls_predict(self, file_a, file_b, rules, mode):
        # Exit 2 iff a file does not parse or is not UTF-8, else 4 iff the
        # rules raise RuleError, else 3 iff the verdict rejects; so never 6.
        def parsed(data, name):
            try:
                return parse_policy(data.decode("utf-8-sig"), name=name)[0]
            except UnicodeDecodeError:
                return None

        policy_a, policy_b = parsed(file_a, "a"), parsed(file_b, "b")
        if policy_a is None or policy_b is None:
            code = cli.EXIT_PARSE
        else:
            report = compare(policy_a, policy_b, mode)
            try:
                verdict = evaluate(report, parse_rules(rules or ""))
            except RuleError:
                code = cli.EXIT_RULES
            else:
                code = cli.EXIT_OK if verdict.accepted else cli.EXIT_REJECTED
        with tempfile.TemporaryDirectory() as work:
            paths = {name: Path(work) / name for name in ("a.txt", "b.txt", "rules.txt", "draft.txt")}
            paths["a.txt"].write_bytes(file_a)
            paths["b.txt"].write_bytes(file_b)
            pair = [str(paths["a.txt"]), str(paths["b.txt"]), "--mode", mode.value]
            if rules is not None:
                paths["rules.txt"].write_text(rules, encoding="utf-8")
                pair += ["--rules", str(paths["rules.txt"])]
            runs = [
                _quietly(["validate", pair[0]]),
                _quietly(["compare", *pair]),
                _quietly(["merge", *pair, "--out", str(paths["draft.txt"])]),
            ]
            draft = paths["draft.txt"].read_text(encoding="utf-8") if paths["draft.txt"].exists() else None
        assert [(run_code, out) for run_code, out, _ in runs] == [
            (cli.EXIT_PARSE if policy_a is None else cli.EXIT_OK, ""),
            (code, report_to_json(report) + "\n" if code in (cli.EXIT_OK, cli.EXIT_REJECTED) else ""),
            (code, ""),
        ]
        assert not [err for _, _, err in runs if "Traceback" in err]
        if code == cli.EXIT_OK:
            merged = merge(policy_a, policy_b, report, verdict)
            assert parse_policy(draft)[0].roots == merged.roots
        else:
            assert draft is None


def documented_exit_codes() -> set[int]:
    """The codes of CLI.md's exit-code table, less its retired codes."""
    text = (Path(__file__).resolve().parents[1] / "CLI.md").read_text(encoding="utf-8")
    table = text.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
    return {
        int(code)
        for code, meaning in re.findall(r"^\| (\d+) \| (.*) \|$", table, re.MULTILINE)
        if not meaning.startswith("Retired")
    }


class TestExitCodeTable:
    def test_documented_codes_are_the_exit_constants(self):
        defined = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
        assert documented_exit_codes() == defined

    def test_runs_end_with_every_documented_code(self):
        # So a new exit route fails the suite until the run table has a row
        # for it. Only a patched command reaches code 6 (TestInternalErrors).
        assert set(RUN_CODES) == documented_exit_codes() - {cli.EXIT_INTERNAL}


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
        result = run_module("validate", str(file))
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
