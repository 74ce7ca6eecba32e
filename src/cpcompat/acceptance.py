"""Threshold rules that turn a comparison report into a verdict.

A rules file holds one rule per line, with ``#`` comments and blank
lines ignored:

    # weighted overall score, strict
    overall > 80
    overall >= 60 unweighted
    # a paragraph's combined score
    paragraph 1.2 > 50
    # exact compatibility required
    paragraph 4.1 == 100

``>`` is strict: a score exactly at the threshold is rejected. ``>=``
accepts it. ``==`` exists only for a section's full score of 100. Comparisons
tolerate float noise of 1e-9 either way.

The verdict accepts only when every rule passes; rejected verdicts list
each failed rule with the score that was observed.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass

from .model import SCORE_EPSILON, ComparisonReport, NumberPath

__all__ = [
    "AcceptanceRule",
    "RuleFailure",
    "Verdict",
    "RuleError",
    "RuleSyntaxError",
    "UnknownPathError",
    "parse_rules",
    "evaluate",
]


# A threshold as a rules file writes it: ASCII digits, an optional decimal part.
_NUMBER_RE = re.compile(r"[0-9]+(?:\.[0-9]+)?")


class RuleError(ValueError):
    """A problem with acceptance rules, in text form or applied to a report."""


class RuleSyntaxError(RuleError):
    """A rules file line that does not follow the grammar."""


class UnknownPathError(RuleError):
    """A rule names a paragraph the comparison report does not contain."""


@dataclass(frozen=True)
class AcceptanceRule:
    """One threshold rule: ``operator`` is ``>``, ``>=`` or ``==``.

    A rule with no ``path`` reads the overall score, weighted unless
    ``weighted`` is False. A rule with a ``path`` reads that section's
    combined score. ``==`` exists only for a section's full score of 100.
    """

    operator: str
    threshold: float
    path: NumberPath | None = None
    weighted: bool = True

    def __post_init__(self) -> None:
        if self.operator not in (">", ">=", "=="):
            raise ValueError(f"unknown operator {self.operator!r}")
        # describe() writes the threshold through repr(), which is a plain
        # decimal only for an int or a float.
        if type(self.threshold) not in (int, float):
            raise ValueError(f"threshold must be an int or float, got {self.threshold!r}")
        if self.path is not None and not isinstance(self.path, NumberPath):
            raise ValueError(f"path must be a NumberPath or None, got {self.path!r}")
        if type(self.weighted) is not bool:
            raise ValueError(f"weighted must be a bool, got {self.weighted!r}")
        if not 0.0 <= self.threshold <= 100.0:
            raise ValueError("threshold must be within [0, 100]")
        if self.operator == "==" and (self.path is None or self.threshold != 100.0):
            raise ValueError("'==' rules only exist for a section's full score of 100")
        if self.path is not None and not self.weighted:
            raise ValueError("section rules read the combined score and take no basis")

    def describe(self) -> str:
        """The rule as a rules file line that parses back to this rule."""
        # Imported here, its only use, so that loading the module does not.
        from decimal import Decimal

        # The shortest plain decimal that reads back as the same float; abs()
        # writes -0.0, which the range check admits, as 0.
        threshold = f"{Decimal(repr(abs(self.threshold))).normalize():f}"
        if self.path is None:
            basis = "weighted" if self.weighted else "unweighted"
            return f"overall {self.operator} {threshold} {basis}"
        return f"paragraph {self.path.dotted} {self.operator} {threshold}"


@dataclass(frozen=True)
class RuleFailure:
    """A rule that the report did not satisfy, with the score it read
    (``actual``); ``message`` says both in one line."""

    rule: AcceptanceRule
    actual: float

    @property
    def message(self) -> str:
        shown = f"{self.actual:.4f}"
        # Four decimals can round a failing score onto a value that would
        # pass; such a score is written in full.
        if _passes(self.rule, float(shown)):
            shown = repr(self.actual)
        return f"score {shown} does not satisfy '{self.rule.describe()}'"


@dataclass(frozen=True)
class Verdict:
    """The outcome of evaluating rules against a report: one failure per
    unsatisfied rule, in the order of the rules. ``accepted`` holds when
    there are none, and only an accepted verdict unlocks a merge."""

    failures: tuple[RuleFailure, ...]

    @property
    def accepted(self) -> bool:
        return not self.failures


def _parse_rule(line_no: int, line: str) -> AcceptanceRule:
    """Check a line's token shape, then let AcceptanceRule judge its values."""

    def syntax_error(why: str) -> RuleSyntaxError:
        return RuleSyntaxError(f"line {line_no}: {why}: {line!r}")

    subject, *args = line.split()
    path = None
    weighted = True
    if subject == "overall" and len(args) in (2, 3):
        operator, number, *basis = args
        if basis:
            if basis[0] not in ("weighted", "unweighted"):
                raise syntax_error(f"unknown basis {basis[0]!r}")
            weighted = basis[0] == "weighted"
    elif subject == "paragraph" and len(args) == 3:
        dotted, operator, number = args
        try:
            path = NumberPath.parse(dotted)
        except ValueError:
            raise syntax_error(f"bad section number {dotted!r}") from None
    elif subject == "overall":
        raise syntax_error("expected 'overall <operator> <number> [basis]'")
    elif subject == "paragraph":
        raise syntax_error("expected 'paragraph <path> <operator> <number>'")
    else:
        raise syntax_error(f"unknown rule {subject!r}")
    if not _NUMBER_RE.fullmatch(number):
        raise syntax_error(f"not a number: {number!r}")
    try:
        return AcceptanceRule(operator, float(number), path, weighted)
    except ValueError as error:
        raise syntax_error(str(error)) from None


def parse_rules(text: str) -> list[AcceptanceRule]:
    """Parse a rules file. Raises RuleSyntaxError on the first bad line."""
    rules: list[AcceptanceRule] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            rules.append(_parse_rule(line_no, line))
    return rules


def _observed_score(report: ComparisonReport, rule: AcceptanceRule) -> float:
    if rule.path is None:
        return report.overall_weighted if rule.weighted else report.overall_unweighted
    row = report.find(rule.path)
    if row is None:
        raise UnknownPathError(
            f"rule {rule.describe()!r} names section {rule.path.dotted}, "
            f"which the report does not contain"
        )
    return row.combined_score


def _passes(rule: AcceptanceRule, actual: float) -> bool:
    if rule.operator == ">":
        return actual - rule.threshold > SCORE_EPSILON
    # No score exceeds 100, so "== 100" accepts exactly what ">= 100" does.
    return actual - rule.threshold >= -SCORE_EPSILON


def evaluate(report: ComparisonReport, rules: Sequence[AcceptanceRule]) -> Verdict:
    """Check every rule against the report. All rules must pass."""
    failures: list[RuleFailure] = []
    for rule in rules:
        actual = _observed_score(report, rule)
        if not _passes(rule, actual):
            failures.append(RuleFailure(rule, actual))
    return Verdict(tuple(failures))
