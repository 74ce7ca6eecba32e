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

A paragraph without a Connection line is treated as AND, the stricter
reading.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Sequence
from typing import NamedTuple

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


class ProvisionalMatch(NamedTuple):
    """A phrase-equal option pair across two paragraphs.

    ``keyword_factor`` is 1 minus the absolute strength difference of the
    two keywords, so identical keywords give 1.0 and MUST vs NOT gives 0.0.
    """

    index_a: int
    index_b: int
    keyword_factor: float


def match_options(
    options_a: Sequence[PolicyOption],
    options_b: Sequence[PolicyOption],
) -> list[ProvisionalMatch]:
    """Pair options with equal normalized phrases, one-to-one.

    Options are taken in list order on the A side; each draws the first
    not-yet-paired B option with the same normalized phrase. Within a
    phrase the pairing is therefore positional: the k-th A option with a
    phrase pairs with the k-th B option with that phrase, which keeps the
    result symmetric even when a phrase repeats.

    Each phrase keeps a queue of its B indices in B order, so the cost is
    O(len(options_a) + len(options_b)).
    """
    queues: dict[str, deque[int]] = defaultdict(deque)
    for index_b, option_b in enumerate(options_b):
        queues[normalize_phrase(option_b.phrase)].append(index_b)

    matches: list[ProvisionalMatch] = []
    for index_a, option_a in enumerate(options_a):
        queue = queues.get(normalize_phrase(option_a.phrase))
        if not queue:
            continue
        index_b = queue.popleft()
        factor = 1.0 - abs(
            option_keyword_value(option_a) - option_keyword_value(options_b[index_b])
        )
        matches.append(ProvisionalMatch(index_a, index_b, factor))
    return matches


def score_option_lists(
    options_a: Sequence[PolicyOption],
    options_b: Sequence[PolicyOption],
    connective: Connective,
    mode: ComparisonMode,
) -> float:
    """Score two option lists under the given connective and mode."""
    if not options_a and not options_b:
        return 100.0
    if not options_a or not options_b:
        # One side is silent. A merger partner with no matching stance is
        # fully incompatible; an acquired policy is simply superseded.
        return 100.0 if mode is ComparisonMode.ACQUIRE else 0.0

    terms = [100.0 * m.keyword_factor for m in match_options(options_a, options_b)]

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
