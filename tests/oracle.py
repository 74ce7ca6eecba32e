"""Independent references for paragraph option scoring and the JSON report.

``oracle_score`` is a deliberately naive transcription of the scoring
rules with explicit nested loops.  It only uses the domain types, never
the scoring module, so the test suite can check the production
implementation against it case by case.  ``oracle_report_dict`` states
the JSON report's layout as plain data for ``json.dumps``, which the
report writer must match byte for byte.
"""

from __future__ import annotations

from typing import Sequence

from cpcompat.model import ComparisonMode, ComparisonReport, Connective, PolicyOption


def _strength(option: PolicyOption) -> float:
    if option.keyword is None:
        return 1.0
    return option.keyword.value


def _normalized(option: PolicyOption) -> str:
    return " ".join(option.phrase.split()).lower()


def oracle_matches(
    options_a: Sequence[PolicyOption],
    options_b: Sequence[PolicyOption],
) -> list[tuple[int, int, float]]:
    """Pair options by exhaustive search, as (index_a, index_b, factor).

    Each A option, in order, takes the first not-yet-used B option whose
    normalized phrase is equal.
    """
    used_b = [False] * len(options_b)
    triples: list[tuple[int, int, float]] = []
    for j in range(len(options_a)):
        for k in range(len(options_b)):
            if used_b[k]:
                continue
            if _normalized(options_a[j]) == _normalized(options_b[k]):
                factor = 1.0 - abs(_strength(options_a[j]) - _strength(options_b[k]))
                triples.append((j, k, factor))
                used_b[k] = True
                break
    return triples


def oracle_score(
    options_a: Sequence[PolicyOption],
    options_b: Sequence[PolicyOption],
    connective: Connective,
    mode: ComparisonMode,
) -> float:
    """Score one paragraph pair by exhaustive pairing.

    Pairs the options with ``oracle_matches``, then applies the OR rule
    (maximum term) or the AND rule (term sum over the mode's denominator).
    """
    count_a = len(options_a)
    count_b = len(options_b)

    if count_a == 0 and count_b == 0:
        return 100.0
    if count_a == 0 or count_b == 0:
        if mode is ComparisonMode.ACQUIRE:
            return 100.0
        return 0.0

    terms = [100.0 * factor for _, _, factor in oracle_matches(options_a, options_b)]

    effective = Connective.AND if connective is Connective.NONE else connective
    if effective is Connective.OR:
        best = 0.0
        for term in terms:
            if term > best:
                best = term
        return best

    total = 0.0
    for term in terms:
        total += term
    if mode is ComparisonMode.MERGE:
        return total / max(count_a, count_b)
    return total / count_a


def oracle_report_dict(report: ComparisonReport) -> dict:
    """The report as plain data with the v1 layout; ``json.dumps`` of it with
    ``indent=2, ensure_ascii=False`` is the reference report text."""
    return {
        "report_version": 1,
        "mode": report.mode.value,
        "policy_a_name": report.policy_a_name,
        "policy_b_name": report.policy_b_name,
        "overall_weighted": report.overall_weighted,
        "overall_unweighted": report.overall_unweighted,
        "paragraphs": [
            {
                "path": row.path.dotted,
                "own_score": row.own_score,
                "child_aggregate": row.child_aggregate,
                "combined_score": row.combined_score,
                "weight": row.weight,
                "match_status": row.match_status.value,
            }
            for row in report.paragraph_scores
        ],
        "diagnostics": [
            {
                "code": diagnostic.code,
                "path": diagnostic.path.dotted if diagnostic.path is not None else None,
                "message": diagnostic.message,
            }
            for diagnostic in report.diagnostics
        ],
    }
