"""Command line interface.

Three commands cover the library's workflow:

* ``cpcompat validate FILE`` checks that a policy file parses.
* ``cpcompat compare A B`` scores two policies and emits a JSON report.
* ``cpcompat merge A B`` writes the unified policy for an accepted pair.

Machine-readable output (the JSON report, the merged policy text) goes
to stdout or to the requested output file; diagnostics and the human
summary go to stderr.

Exit codes: 0 success (and, with rules, acceptance); 1 file I/O problem;
2 parse errors, including input that is not UTF-8; 3 rules rejected the
combination; 4 the rules file itself is unusable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NamedTuple

from .acceptance import (
    AcceptanceRule,
    RuleSyntaxError,
    UnknownPathError,
    Verdict,
    evaluate,
    parse_rules,
)
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


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _read_text(path: str) -> tuple[str | None, int]:
    try:
        return Path(path).read_text(encoding="utf-8"), EXIT_OK
    except UnicodeDecodeError as exc:
        _say(f"{path}: not valid UTF-8: {exc}")
        return None, EXIT_PARSE
    except OSError as exc:
        _say(f"{path}: {exc}")
        return None, EXIT_IO


def _load_policy(path: str) -> tuple[Policy | None, int, list[ParseDiagnostic]]:
    """Read and parse one policy file, reporting diagnostics to stderr."""
    text, code = _read_text(path)
    if text is None:
        return None, code, []
    policy, diagnostics = parse_policy(text, name=Path(path).stem)
    for diagnostic in diagnostics:
        _say(f"{path}: {diagnostic}")
    return policy, EXIT_OK if policy is not None else EXIT_PARSE, diagnostics


def _load_rules(path: str) -> tuple[list[AcceptanceRule] | None, int]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        _say(f"{path}: {exc}")
        return None, EXIT_RULES
    try:
        return parse_rules(text), EXIT_OK
    except RuleSyntaxError as exc:
        _say(f"{path}: {exc}")
        return None, EXIT_RULES


def _summarize(report: ComparisonReport) -> None:
    _say(
        f"{report.policy_a_name} vs {report.policy_b_name} "
        f"({report.mode.value} semantics)"
    )
    if report.paragraph_scores:
        _say(f"  {'section':<12} {'score':>8}  {'weight':>6}  status")
        for row in report.paragraph_scores:
            _say(
                f"  {row.path.dotted:<12} {row.combined_score:>8.2f}  "
                f"{row.weight:>6}  {row.match_status.value}"
            )
    _say(f"overall weighted:   {report.overall_weighted:.2f}")
    _say(f"overall unweighted: {report.overall_unweighted:.2f}")


def _announce(verdict: Verdict) -> None:
    if verdict.accepted:
        _say("verdict: accepted")
    else:
        _say("verdict: rejected")
        for failure in verdict.failures:
            _say(f"  {failure.message}")


def _write_or_print(text: str, out: str | None) -> int:
    if out is None:
        print(text, end="" if text.endswith("\n") else "\n")
        return EXIT_OK
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        _say(f"{out}: {exc}")
        return EXIT_IO
    return EXIT_OK


def cmd_validate(file: str) -> int:
    policy, code, diagnostics = _load_policy(file)
    if policy is None:
        return code
    warnings = sum(1 for d in diagnostics if d.severity is Severity.WARNING)
    paragraphs = sum(1 for _ in policy.walk())
    _say(f"{file}: valid, {paragraphs} paragraphs, {warnings} warnings")
    return EXIT_OK


class _Compared(NamedTuple):
    """Loaded inputs and results shared by compare and merge."""

    policy_a: Policy
    policy_b: Policy
    report: ComparisonReport
    verdict: Verdict | None


def _compared(
    file_a: str,
    file_b: str,
    mode: ComparisonMode,
    rules: str | None,
) -> tuple[_Compared | None, int]:
    """Shared front half of compare and merge."""
    policy_a, code_a, _ = _load_policy(file_a)
    if policy_a is None and code_a == EXIT_IO:
        return None, code_a
    policy_b, code_b, _ = _load_policy(file_b)
    if policy_b is None and code_b == EXIT_IO:
        return None, code_b
    if policy_a is None or policy_b is None:
        return None, EXIT_PARSE

    report = compare(policy_a, policy_b, mode)

    verdict: Verdict | None = None
    if rules is not None:
        parsed_rules, code = _load_rules(rules)
        if parsed_rules is None:
            return None, code
        try:
            verdict = evaluate(report, parsed_rules)
        except UnknownPathError as exc:
            _say(f"{rules}: {exc}")
            return None, EXIT_RULES
    return _Compared(policy_a, policy_b, report, verdict), EXIT_OK


def cmd_compare(
    file_a: str,
    file_b: str,
    mode: ComparisonMode,
    rules: str | None = None,
    report_out: str | None = None,
) -> int:
    result, code = _compared(file_a, file_b, mode, rules)
    if result is None:
        return code
    write_code = _write_or_print(report_to_json(result.report) + "\n", report_out)
    if write_code != EXIT_OK:
        return write_code
    _summarize(result.report)
    if result.verdict is None:
        return EXIT_OK
    _announce(result.verdict)
    return EXIT_OK if result.verdict.accepted else EXIT_REJECTED


def cmd_merge(
    file_a: str,
    file_b: str,
    mode: ComparisonMode,
    rules: str | None = None,
    out: str | None = None,
) -> int:
    result, code = _compared(file_a, file_b, mode, rules)
    if result is None:
        return code
    verdict = result.verdict
    if verdict is None:
        verdict = evaluate(result.report, [])
    _summarize(result.report)
    _announce(verdict)
    try:
        merged = merge(result.policy_a, result.policy_b, result.report, verdict, mode)
    except MergeRejectedError:
        _say("no unified policy was written")
        return EXIT_REJECTED
    return _write_or_print(render_policy(merged), out)


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
