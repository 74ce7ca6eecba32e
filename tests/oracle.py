"""Independent brute-force reference for paragraph option scoring.

This is a deliberately naive transcription of the scoring rules with
explicit nested loops.  It only uses the domain types, never the scoring
module, so the test suite can check the production implementation against
it case by case.
"""

from __future__ import annotations

from typing import Sequence

from cpcompat.model import Connective, ComparisonMode, PolicyOption


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
