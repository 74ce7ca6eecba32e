"""Threshold rules that turn a comparison report into a verdict.

A rules file holds one rule per line, with ``#`` comments and blank
lines ignored:

    overall > 80            # weighted overall score, strict
    overall >= 60 unweighted
    paragraph 1.2 > 50      # a paragraph's combined score
    paragraph 4.1 == 100    # exact compatibility required

``>`` is strict: a score exactly at the threshold is rejected. ``>=``
accepts it. ``==`` exists only for the full score of 100. Comparisons
tolerate float noise of 1e-9 either way.

The verdict accepts only when every rule passes; rejected verdicts list
each failed rule with the score that was observed.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

from .model import SCORE_EPSILON, ComparisonReport, NumberPath

__all__ = [
    "RuleKind",
    "AcceptanceRule",
    "RuleFailure",
    "Verdict",
    "RuleError",
    "RuleSyntaxError",
    "UnknownPathError",
    "parse_rules",
    "evaluate",
]


class RuleError(ValueError):
    """A problem with acceptance rules, in text form or applied to a report."""


class RuleSyntaxError(RuleError):
    """A rules file line that does not follow the grammar."""


class UnknownPathError(RuleError):
    """A rule names a paragraph the comparison report does not contain."""


class RuleKind(enum.Enum):
    OVERALL_MIN = "overall_min"
    PARAGRAPH_MIN = "paragraph_min"
    PARAGRAPH_EXACT_100 = "paragraph_exact_100"


@dataclass(frozen=True)
class AcceptanceRule:
    kind: RuleKind
    threshold: float
    path: NumberPath | None
    use_weighted: bool
    inclusive: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 100.0:
            raise ValueError("rule threshold must be within [0, 100]")
        needs_path = self.kind is not RuleKind.OVERALL_MIN
        if needs_path != (self.path is not None):
            raise ValueError("paragraph rules need a path; overall rules take none")
        if self.kind is RuleKind.PARAGRAPH_EXACT_100 and self.threshold != 100.0:
            raise ValueError("exact rules only exist for the full score of 100")

    def describe(self) -> str:
        operator = ">=" if self.inclusive else ">"
        threshold = f"{self.threshold:g}"
        if self.kind is RuleKind.OVERALL_MIN:
            basis = "weighted" if self.use_weighted else "unweighted"
            return f"overall {operator} {threshold} {basis}"
        if self.kind is RuleKind.PARAGRAPH_MIN:
            return f"paragraph {self.path.dotted} {operator} {threshold}"
        return f"paragraph {self.path.dotted} == 100"


@dataclass(frozen=True)
class RuleFailure:
    rule: AcceptanceRule
    actual: float
    message: str


@dataclass(frozen=True)
class Verdict:
    failures: tuple[RuleFailure, ...]

    @property
    def accepted(self) -> bool:
        return not self.failures


def _syntax_error(line_no: int, line: str, why: str) -> RuleSyntaxError:
    return RuleSyntaxError(f"line {line_no}: {why}: {line!r}")


def _parse_threshold(line_no: int, line: str, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise _syntax_error(line_no, line, f"not a number: {token!r}") from None
    if not 0.0 <= value <= 100.0:
        raise _syntax_error(line_no, line, "threshold must be within [0, 100]")
    return value


def _parse_overall(line_no: int, line: str, tokens: list[str]) -> AcceptanceRule:
    if len(tokens) not in (3, 4) or tokens[1] not in (">", ">="):
        raise _syntax_error(line_no, line, "expected 'overall >|>= <number> [basis]'")
    use_weighted = True
    if len(tokens) == 4:
        if tokens[3] == "unweighted":
            use_weighted = False
        elif tokens[3] != "weighted":
            raise _syntax_error(line_no, line, f"unknown basis {tokens[3]!r}")
    return AcceptanceRule(
        kind=RuleKind.OVERALL_MIN,
        threshold=_parse_threshold(line_no, line, tokens[2]),
        path=None,
        use_weighted=use_weighted,
        inclusive=tokens[1] == ">=",
    )


def _parse_paragraph(line_no: int, line: str, tokens: list[str]) -> AcceptanceRule:
    if len(tokens) != 4 or tokens[2] not in (">", ">=", "=="):
        raise _syntax_error(line_no, line, "expected 'paragraph <path> >|>=|== <number>'")
    try:
        path = NumberPath.parse(tokens[1])
    except ValueError:
        raise _syntax_error(line_no, line, f"bad section number {tokens[1]!r}") from None
    threshold = _parse_threshold(line_no, line, tokens[3])
    if tokens[2] == "==":
        if threshold != 100.0:
            raise _syntax_error(line_no, line, "'==' rules must require exactly 100")
        return AcceptanceRule(
            kind=RuleKind.PARAGRAPH_EXACT_100,
            threshold=100.0,
            path=path,
            use_weighted=True,
            inclusive=True,
        )
    return AcceptanceRule(
        kind=RuleKind.PARAGRAPH_MIN,
        threshold=threshold,
        path=path,
        use_weighted=True,
        inclusive=tokens[2] == ">=",
    )


def parse_rules(text: str) -> list[AcceptanceRule]:
    """Parse a rules file. Raises RuleSyntaxError on the first bad line."""
    rules: list[AcceptanceRule] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "overall":
            rules.append(_parse_overall(line_no, line, tokens))
        elif tokens[0] == "paragraph":
            rules.append(_parse_paragraph(line_no, line, tokens))
        else:
            raise _syntax_error(line_no, line, f"unknown rule {tokens[0]!r}")
    return rules


def _observed_score(report: ComparisonReport, rule: AcceptanceRule) -> float:
    if rule.kind is RuleKind.OVERALL_MIN:
        return report.overall_weighted if rule.use_weighted else report.overall_unweighted
    row = report.find(rule.path)
    if row is None:
        raise UnknownPathError(
            f"rule {rule.describe()!r} names section {rule.path.dotted}, "
            f"which the report does not contain"
        )
    return row.combined_score


def _passes(rule: AcceptanceRule, actual: float) -> bool:
    if rule.kind is RuleKind.PARAGRAPH_EXACT_100:
        return abs(actual - 100.0) <= SCORE_EPSILON
    if rule.inclusive:
        return actual - rule.threshold >= -SCORE_EPSILON
    return actual - rule.threshold > SCORE_EPSILON


def evaluate(report: ComparisonReport, rules: Sequence[AcceptanceRule]) -> Verdict:
    """Check every rule against the report. All rules must pass."""
    failures: list[RuleFailure] = []
    for rule in rules:
        actual = _observed_score(report, rule)
        if not _passes(rule, actual):
            failures.append(
                RuleFailure(
                    rule=rule,
                    actual=actual,
                    message=f"score {actual:.4f} does not satisfy '{rule.describe()}'",
                )
            )
    return Verdict(tuple(failures))
