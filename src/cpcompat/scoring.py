"""Compatibility scoring for policy paragraphs.

Scores are percentages in [0, 100]. Two option lists are compared by
pairing up options with equal normalized phrases, weighting each pair by
how closely the requirement keywords agree, and then combining the pair
scores according to the paragraph connective:

* ``OR``  - the best pair decides; one shared way to comply suffices.
* ``AND`` - every option matters, so pair scores are averaged over the
  full option count, with :func:`~cpcompat.model.weighted_mean` and 0
  for each unpaired option. Under MERGE semantics the larger list is the
  denominator (both parties keep all their requirements); under ACQUIRE
  only the acquiring side's list counts: the acquired policy is superseded.

Paragraph A's connective governs (:func:`resolve_connective`); B's
governs when A declares none, and AND, the stricter reading, applies when
neither does.
"""

from __future__ import annotations

from collections.abc import Sequence

from .model import (
    ComparisonMode,
    Connective,
    Paragraph,
    PolicyOption,
    normalize_phrase,
    option_keyword_value,
    weighted_mean,
)

__all__ = [
    "match_options",
    "resolve_connective",
    "score_option_lists",
    "score_paragraph_options",
]


def match_options(
    options_a: Sequence[PolicyOption],
    options_b: Sequence[PolicyOption],
) -> list[tuple[int, int]]:
    """Pair options with equal normalized phrases, one-to-one, as
    (index_a, index_b) pairs in A's order.

    Options are taken in list order on the A side; each draws the first
    not-yet-paired B option with the same normalized phrase. Within a
    phrase the pairing is therefore positional: the k-th A option with a
    phrase pairs with the k-th B option with that phrase, which keeps the
    result symmetric even when a phrase repeats.

    Each phrase keeps a list of its B indices, last first, and pops the
    next one off its end, so the cost is O(len(options_a) + len(options_b)).
    """
    unpaired: dict[str, list[int]] = {}
    for index_b in reversed(range(len(options_b))):
        unpaired.setdefault(normalize_phrase(options_b[index_b].phrase), []).append(index_b)

    matches: list[tuple[int, int]] = []
    for index_a, option_a in enumerate(options_a):
        indices = unpaired.get(normalize_phrase(option_a.phrase))
        if indices:
            matches.append((index_a, indices.pop()))
    return matches


def score_option_lists(
    options_a: Sequence[PolicyOption],
    options_b: Sequence[PolicyOption],
    connective: Connective,
    mode: ComparisonMode,
) -> float:
    """Score two option lists under the given connective and mode.

    Each pair :func:`match_options` finds scores 100 times 1 minus the
    absolute difference of the two keyword strengths, so identical
    keywords give 100 and MUST vs NOT gives 0.
    """
    if not options_a and not options_b:
        return 100.0
    if not options_a or not options_b:
        # One side is silent. A merger partner with no matching stance is
        # fully incompatible; an acquired policy is simply superseded.
        return 100.0 if mode is ComparisonMode.ACQUIRE else 0.0

    value = option_keyword_value
    terms = [
        100.0 * (1.0 - abs(value(options_a[index_a]) - value(options_b[index_b])))
        for index_a, index_b in match_options(options_a, options_b)
    ]

    if connective is Connective.OR:
        return max(terms, default=0.0)

    if mode is ComparisonMode.ACQUIRE:
        denominator = len(options_a)
    else:
        denominator = max(len(options_a), len(options_b))
    # Each pair counts once; the options left unpaired count 0.
    return weighted_mean([(term, 1) for term in terms] + [(0.0, denominator - len(terms))])


def resolve_connective(
    paragraph_a: Paragraph,
    paragraph_b: Paragraph,
) -> tuple[Connective, bool]:
    """The connective that governs two corresponding paragraphs, and
    whether the two sides conflict.

    Paragraph A's connective governs; B's fills in only when A does not
    declare one. The sides conflict when both declare a connective and
    the two differ.
    """
    connective_a, connective_b = paragraph_a.connective, paragraph_b.connective
    if connective_a is Connective.NONE:
        return connective_b, False
    return connective_a, connective_b is not Connective.NONE and connective_b is not connective_a


def score_paragraph_options(
    paragraph_a: Paragraph,
    paragraph_b: Paragraph,
    mode: ComparisonMode,
) -> float:
    """Score the option lists of two corresponding paragraphs under the
    connective :func:`resolve_connective` picks."""
    connective, _ = resolve_connective(paragraph_a, paragraph_b)
    return score_option_lists(paragraph_a.options, paragraph_b.options, connective, mode)
