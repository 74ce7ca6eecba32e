"""Command line interface.

Three commands cover the library's workflow:

* ``cpcompat validate FILE`` checks that a policy file parses.
* ``cpcompat compare A B`` scores two policies and emits a JSON report.
* ``cpcompat merge A B`` writes the unified policy for an accepted pair.

Machine-readable output (the JSON report, the merged policy text) goes
to stdout or to the requested output file; diagnostics and the human
summary go to stderr.

Exit codes: 0 success (and, with rules, acceptance); 1 file or stdout
I/O problem; 2 parse errors, including input that is not UTF-8; 3 rules
rejected the combination; 4 the rules file itself is unusable; 6 an
unexpected exception, reported as one stderr line with no traceback.
Code 5 is retired: every merged policy can be written in the text format.

``main`` pauses the cyclic garbage collector for the length of one
command. Nothing cpcompat builds can form a reference cycle: policies and
reports are frozen dataclasses over tuples, and the parser's nodes link
only to their children, never back. Reference counting frees all of it,
so the collector's passes over a large policy tree would find nothing.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .acceptance import RuleError, Verdict, evaluate, parse_rules
from .comparison import compare, report_to_json
from .merger import MergeRejectedError, merge
from .model import ComparisonMode, ComparisonReport, Policy
from .parser import ParseDiagnostic, Severity, parse_policy, render_policy

__all__ = ["main", "cmd_validate", "cmd_compare", "cmd_merge"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_REJECTED = 3
EXIT_RULES = 4
EXIT_INTERNAL = 6


class _Exit(SystemExit):
    """Ends a command with exit code ``code``; the reason is already on stderr.

    ``main`` returns the code. A SystemExit, so a caller of a ``cmd_``
    function that does not catch it still exits with the right code.
    """


def _say(*lines: str) -> None:
    """Write lines to stderr, each ended by a newline, in one write."""
    sys.stderr.write("".join([line + "\n" for line in lines]))


def _load_policy(path: str) -> tuple[Policy | None, list[ParseDiagnostic]]:
    """Read and parse one policy file, reporting diagnostics to stderr.

    The policy is None when the file is not UTF-8 or does not parse; an
    unreadable file ends the command with exit code 1.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        _say(f"{path}: not valid UTF-8: {exc}")
        return None, []
    except OSError as exc:
        _say(f"{path}: {exc}")
        raise _Exit(EXIT_IO) from None
    # A file name is bytes; those the file system encoding cannot decode
    # become U+FFFD, so the name can be written as UTF-8 like the report.
    name = os.fsencode(Path(path).stem).decode(sys.getfilesystemencoding(), "replace")
    policy, diagnostics = parse_policy(text, name=name)
    _say(*[f"{path}: {diagnostic}" for diagnostic in diagnostics])
    return policy, diagnostics


def _verdict(report: ComparisonReport, rules: str) -> Verdict:
    try:
        return evaluate(report, parse_rules(Path(rules).read_text(encoding="utf-8-sig")))
    except (OSError, UnicodeDecodeError, RuleError) as exc:
        _say(f"{rules}: {exc}")
        raise _Exit(EXIT_RULES) from None


def _summarize(report: ComparisonReport) -> None:
    lines = [f"{report.policy_a_name} vs {report.policy_b_name} ({report.mode._value_} semantics)"]
    if report.paragraph_scores:
        lines.append(f"  {'section':<12} {'score':>8}  {'weight':>6}  status")
        lines.extend(
            f"  {row.path.dotted:<12} {row.combined_score:>8.2f}  "
            f"{row.weight:>6}  {row.match_status._value_}"
            for row in report.paragraph_scores
        )
    lines.append(f"overall weighted:   {report.overall_weighted:.2f}")
    lines.append(f"overall unweighted: {report.overall_unweighted:.2f}")
    _say(*lines)


def _announce(verdict: Verdict) -> None:
    if verdict.accepted:
        _say("verdict: accepted")
    else:
        _say("verdict: rejected", *[f"  {failure.message}" for failure in verdict.failures])


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            _say(f"<stdout>: {exc}")
            # The interpreter flushes stdout again at exit. Point it at the
            # null device, so that flush neither fails nor reports it.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise _Exit(EXIT_IO) from None
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        _say(f"{out}: {exc}")
        raise _Exit(EXIT_IO) from None


def cmd_validate(file: str) -> int:
    policy, diagnostics = _load_policy(file)
    if policy is None:
        return EXIT_PARSE
    warnings = sum(1 for d in diagnostics if d.severity is Severity.WARNING)
    paragraphs = sum(1 for _ in policy.walk())
    _say(f"{file}: valid, {paragraphs} paragraphs, {warnings} warnings")
    return EXIT_OK


def _compared(
    file_a: str,
    file_b: str,
    mode: ComparisonMode,
    rules: str | None,
) -> tuple[Policy, Policy, ComparisonReport, Verdict | None]:
    """Shared front half of compare and merge: both policies, the report
    and, with rules, the verdict."""
    policy_a, _ = _load_policy(file_a)
    policy_b, _ = _load_policy(file_b)
    if policy_a is None or policy_b is None:
        raise _Exit(EXIT_PARSE)
    report = compare(policy_a, policy_b, mode)
    verdict = None if rules is None else _verdict(report, rules)
    return policy_a, policy_b, report, verdict


def cmd_compare(
    file_a: str,
    file_b: str,
    mode: ComparisonMode,
    rules: str | None = None,
    report_out: str | None = None,
) -> int:
    _, _, report, verdict = _compared(file_a, file_b, mode, rules)
    _write_or_print(report_to_json(report) + "\n", report_out)
    _summarize(report)
    if verdict is None:
        return EXIT_OK
    _announce(verdict)
    return EXIT_OK if verdict.accepted else EXIT_REJECTED


def cmd_merge(
    file_a: str,
    file_b: str,
    mode: ComparisonMode,
    rules: str | None = None,
    out: str | None = None,
) -> int:
    policy_a, policy_b, report, verdict = _compared(file_a, file_b, mode, rules)
    if verdict is None:
        verdict = evaluate(report, [])
    _summarize(report)
    _announce(verdict)
    try:
        merged = merge(policy_a, policy_b, report, verdict)
    except MergeRejectedError:
        _say("no unified policy was written")
        return EXIT_REJECTED
    _write_or_print(render_policy(merged), out)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cpcompat",
        description="Compare certificate policies and build unified drafts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="check that a policy file parses")
    validate.add_argument("file", help="policy text file")

    def add_pair_arguments(command: argparse.ArgumentParser) -> None:
        command.add_argument("file_a", help="the comparing party's policy")
        command.add_argument("file_b", help="the other party's policy")
        command.add_argument(
            "--mode",
            choices=[m.value for m in ComparisonMode],
            default=ComparisonMode.MERGE.value,
            help="merger of equals or acquisition (default: merge)",
        )
        command.add_argument("--rules", help="acceptance rules file")

    comparison = commands.add_parser("compare", help="score two policies")
    add_pair_arguments(comparison)
    comparison.add_argument("--report", help="write the JSON report here instead of stdout")

    merger = commands.add_parser("merge", help="emit the unified policy for an accepted pair")
    add_pair_arguments(merger)
    merger.add_argument("--out", help="write the merged policy here instead of stdout")

    arguments = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        if arguments.command == "validate":
            return cmd_validate(arguments.file)
        mode = ComparisonMode(arguments.mode)
        if arguments.command == "compare":
            return cmd_compare(
                arguments.file_a,
                arguments.file_b,
                mode,
                rules=arguments.rules,
                report_out=arguments.report,
            )
        return cmd_merge(
            arguments.file_a,
            arguments.file_b,
            mode,
            rules=arguments.rules,
            out=arguments.out,
        )
    except _Exit as stop:
        return stop.code
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        _say(f"cpcompat: internal error: {type(exc).__name__}: {message}")
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()
