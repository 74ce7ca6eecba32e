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

from .model import SCORE_EPSILON, ComparisonReport, NumberPath, _Frozen, slot_setters

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


class AcceptanceRule(_Frozen):
    """One threshold rule: ``operator`` is ``>``, ``>=`` or ``==``.

    A rule with no ``path`` reads the overall score, weighted unless
    ``weighted`` is False. A rule with a ``path`` reads that section's
    combined score. ``==`` exists only for a section's full score of 100.
    """

    __slots__ = ("operator", "threshold", "path", "weighted")

    def __init__(self, operator: str, threshold: float, path: NumberPath | None = None,
                 weighted: bool = True) -> None:
        if operator not in (">", ">=", "=="):
            raise ValueError(f"unknown operator {operator!r}")
        # describe() writes the threshold through repr(), which is a plain
        # decimal only for an int or a float.
        if type(threshold) not in (int, float):
            raise ValueError(f"threshold must be an int or float, got {threshold!r}")
        if path is not None and not isinstance(path, NumberPath):
            raise ValueError(f"path must be a NumberPath or None, got {path!r}")
        if type(weighted) is not bool:
            raise ValueError(f"weighted must be a bool, got {weighted!r}")
        if not 0.0 <= threshold <= 100.0:
            raise ValueError("threshold must be within [0, 100]")
        if operator == "==" and (path is None or threshold != 100.0):
            raise ValueError("'==' rules only exist for a section's full score of 100")
        if path is not None and not weighted:
            raise ValueError("section rules read the combined score and take no basis")
        _set_operator(self, operator)
        _set_threshold(self, threshold)
        _set_path(self, path)
        _set_weighted(self, weighted)

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


_set_operator, _set_threshold, _set_path, _set_weighted = slot_setters(AcceptanceRule)


class RuleFailure(_Frozen):
    """A rule that the report did not satisfy, with the score it read
    (``actual``); ``message`` says both in one line."""

    __slots__ = ("rule", "actual")

    def __init__(self, rule: AcceptanceRule, actual: float) -> None:
        _set_rule(self, rule)
        _set_actual(self, actual)

    @property
    def message(self) -> str:
        shown = f"{self.actual:.4f}"
        # Four decimals can round a failing score onto a value that would
        # pass; such a score is written in full.
        if _passes(self.rule, float(shown)):
            shown = repr(self.actual)
        return f"score {shown} does not satisfy '{self.rule.describe()}'"


_set_rule, _set_actual = slot_setters(RuleFailure)


class Verdict(_Frozen):
    """The outcome of evaluating rules against a report: one failure per
    unsatisfied rule, in the order of the rules. ``accepted`` holds when
    there are none, and only an accepted verdict unlocks a merge."""

    __slots__ = ("failures",)

    def __init__(self, failures: tuple[RuleFailure, ...]) -> None:
        _set_failures(self, failures)

    @property
    def accepted(self) -> bool:
        return not self.failures


(_set_failures,) = slot_setters(Verdict)


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
