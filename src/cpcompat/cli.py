"""Command line interface.

Three commands cover the library's workflow:

* ``cpcompat validate FILE`` checks that a policy file parses.
* ``cpcompat compare A B`` scores two policies and emits a JSON report.
* ``cpcompat merge A B`` writes the unified policy for an accepted pair.

``main`` is the one entry point. Argparse hands each command's parsed
arguments straight to its body, ``_validate``, ``_compare`` or ``_merge``.
The argument parser is built once per process, by the first ``main`` call,
and reused by every later call in that process.

Machine-readable output (the JSON report, the merged policy text) goes
to stdout or to the requested output file; diagnostics and the human
summary go to stderr. ``validate`` lists every diagnostic; ``compare``
and ``merge`` write one line per diagnostic code, with a count of the
rest, and the overall scores: the score of each section is in the
report. Each write to stdout or stderr goes through ``_write``. One that
fails is dropped on stderr, with no change to the exit code; on stdout it
ends the command with exit code 1; argparse's help or usage text keeps
argparse's code.

Exit codes: 0 success (and, with rules, acceptance), or help; 1 file or
stdout I/O problem; 2 parse errors, including input that is not UTF-8,
and usage errors; 3 rules rejected the combination; 4 the rules file
itself is unusable; 6 an unexpected exception, reported as one stderr
line with no traceback.
Code 5 is retired: every merged policy can be written in the text format.

``main`` pauses the cyclic garbage collector for the length of one
command. Nothing cpcompat builds can form a reference cycle: policies and
reports are frozen dataclasses over tuples, and the parser's nodes link
only to their children, never back. Reference counting frees all of it,
so the collector's passes over a large policy tree would find nothing.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from collections import Counter
from pathlib import Path
from typing import TextIO

from .acceptance import RuleError, Verdict, evaluate, parse_rules
from .comparison import compare, report_to_json
from .merger import MergeRejectedError, merge
from .model import ComparisonMode, ComparisonReport, Policy
from .parser import ParseDiagnostic, parse_policy, render_policy

__all__ = ["main"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_PARSE = 2
EXIT_REJECTED = 3
EXIT_RULES = 4
EXIT_INTERNAL = 6


class _Exit(SystemExit):
    """Ends a command with exit code ``code``; the reason is already on stderr.

    ``main`` returns the code. A SystemExit, for its ``code`` attribute.
    """


def _write(stream: TextIO, text: str) -> OSError | None:
    """Write ``text`` to ``stream`` and flush it. Return the error of a
    failed write, after pointing the stream's descriptor at the null device
    so that the interpreter's flush at exit neither fails nor reports it."""
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return exc
    return None


def _say(*lines: str) -> None:
    """Write lines to stderr, each ended by a newline, in one write.

    Stderr is for a person, so lines that cannot be written are dropped
    and the command keeps its own exit code.
    """
    _write(sys.stderr, "".join([line + "\n" for line in lines]))


def _load_policy(path: str) -> tuple[Policy | None, list[ParseDiagnostic]]:
    """Read and parse one policy file; the caller reports the diagnostics.

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
    return parse_policy(text, name=name)


def _by_code(path: str, diagnostics: list[ParseDiagnostic]) -> list[str]:
    """One line per diagnostic code, in the order the codes first appear:
    the code's first diagnostic, then how many more of that code follow."""
    # Counter keeps the codes in the order of their first appearance.
    counts = Counter([diagnostic.code for diagnostic in diagnostics])
    first = {diagnostic.code: diagnostic for diagnostic in reversed(diagnostics)}
    return [
        f"{path}: {first[code]}" + (f" (and {count - 1} more)" if count > 1 else "")
        for code, count in counts.items()
    ]


def _verdict(report: ComparisonReport, rules: str) -> Verdict:
    try:
        return evaluate(report, parse_rules(Path(rules).read_text(encoding="utf-8-sig")))
    except UnicodeDecodeError as exc:
        _say(f"{rules}: not valid UTF-8: {exc}")
    except (OSError, RuleError) as exc:
        _say(f"{rules}: {exc}")
    raise _Exit(EXIT_RULES)


def _summarize(report: ComparisonReport) -> None:
    _say(
        f"{report.policy_a_name} vs {report.policy_b_name} ({report.mode._value_} semantics)",
        f"overall weighted:   {report.overall_weighted:.2f}",
        f"overall unweighted: {report.overall_unweighted:.2f}",
    )


def _announce(verdict: Verdict) -> None:
    if verdict.accepted:
        _say("verdict: accepted")
    else:
        _say("verdict: rejected", *[f"  {failure.message}" for failure in verdict.failures])


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        if (error := _write(sys.stdout, text)) is not None:
            _say(f"<stdout>: {error}")
            raise _Exit(EXIT_IO)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        _say(f"{out}: {exc}")
        raise _Exit(EXIT_IO) from None


def _validate(arguments: argparse.Namespace) -> int:
    policy, diagnostics = _load_policy(arguments.file)
    _say(*[f"{arguments.file}: {diagnostic}" for diagnostic in diagnostics])
    if policy is None:
        return EXIT_PARSE
    # A policy comes back only when no diagnostic is an error.
    warnings = len(diagnostics)
    paragraphs = sum(1 for _ in policy.walk())
    _say(f"{arguments.file}: valid, {paragraphs} paragraphs, {warnings} warnings")
    return EXIT_OK


def _compared(
    arguments: argparse.Namespace,
) -> tuple[Policy, Policy, ComparisonReport, Verdict | None]:
    """Shared front half of compare and merge: both policies, the report
    and, with rules, the verdict. Each file's diagnostics are folded to
    one line per code."""
    policy_a, diagnostics = _load_policy(arguments.file_a)
    _say(*_by_code(arguments.file_a, diagnostics))
    policy_b, diagnostics = _load_policy(arguments.file_b)
    _say(*_by_code(arguments.file_b, diagnostics))
    if policy_a is None or policy_b is None:
        raise _Exit(EXIT_PARSE)
    report = compare(policy_a, policy_b, ComparisonMode(arguments.mode))
    verdict = None if arguments.rules is None else _verdict(report, arguments.rules)
    return policy_a, policy_b, report, verdict


def _compare(arguments: argparse.Namespace) -> int:
    _, _, report, verdict = _compared(arguments)
    _summarize(report)
    if verdict is not None:
        _announce(verdict)
    _write_or_print(report_to_json(report) + "\n", arguments.report)
    return EXIT_OK if verdict is None or verdict.accepted else EXIT_REJECTED


def _merge(arguments: argparse.Namespace) -> int:
    policy_a, policy_b, report, verdict = _compared(arguments)
    if verdict is None:
        verdict = evaluate(report, [])
    _summarize(report)
    _announce(verdict)
    try:
        merged = merge(policy_a, policy_b, report, verdict)
    except MergeRejectedError:
        _say("no unified policy was written")
        return EXIT_REJECTED
    _write_or_print(render_policy(merged), arguments.out)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpcompat",
        description="Compare certificate policies and build unified drafts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="check that a policy file parses")
    validate.add_argument("file", help="policy text file")
    validate.set_defaults(run=_validate)

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
    comparison.set_defaults(run=_compare)

    merger = commands.add_parser("merge", help="emit the unified policy for an accepted pair")
    add_pair_arguments(merger)
    merger.add_argument("--out", help="write the merged policy here instead of stdout")
    merger.set_defaults(run=_merge)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        arguments = _parser().parse_args(argv)
    except SystemExit as stop:
        # Argparse has written help or a usage error. Flush it here, so that
        # a closed pipe drops it as _say would, with argparse's own code.
        _write(sys.stdout, "")
        _write(sys.stderr, "")
        return stop.code
    collecting = gc.isenabled()
    gc.disable()
    try:
        return arguments.run(arguments)
    except _Exit as stop:
        return stop.code
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        _say(f"cpcompat: internal error: {type(exc).__name__}: {message}")
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()
