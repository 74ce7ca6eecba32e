"""Unit tests for option matching and paragraph scoring.

Each example pair of option lists is a ``_scored`` row, its pairs and score
asserted in one equality, and each ``weighted_mean`` example a ``_mean``
row, with figures written from README's "How scoring works" and compared
exactly. The oracle sweep and the randomized properties follow the rows.
"""

from __future__ import annotations

import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpcompat.model import ComparisonMode, Connective, Keyword, NumberPath, Paragraph, PolicyOption, weighted_mean
from cpcompat.scoring import match_options, score_option_lists, score_paragraph_options

from oracle import oracle_matches, oracle_score
from strategies import SCORING_PHRASES, SPELLED_PHRASES, connectives, modes, option_lists

MERGE, ACQUIRE = ComparisonMode.MERGE, ComparisonMode.ACQUIRE
BOTH = (MERGE, ACQUIRE)
AND, OR, NONE = Connective.AND, Connective.OR, Connective.NONE
MUST, RECOMMENDED, OPTIONAL, NOT = Keyword.MUST, Keyword.RECOMMENDED, Keyword.OPTIONAL, Keyword.NOT
opt = PolicyOption


def para(options: tuple[PolicyOption, ...], connective: Connective) -> Paragraph:
    return Paragraph(path=NumberPath((1,)), title="T", options=options, connective=connective)


def _scored(options_a, options_b, connective, mode, pairs, score):
    """A test that ``options_a`` and ``options_b`` pair as exactly ``pairs``,
    each (index_a, index_b), and score exactly ``score`` under
    ``connective`` in ``mode``. ``mode`` may be a tuple of modes, with
    ``score`` the tuple of their scores."""
    if not isinstance(mode, tuple):
        mode, score = (mode,), (score,)

    def test(self):
        got = tuple(score_option_lists(options_a, options_b, connective, each) for each in mode)
        assert (match_options(options_a, options_b), got) == (pairs, score)

    return test


def _mean(pairs, expected):
    """A test that ``weighted_mean(pairs)`` is exactly ``expected``, a float
    or the message of the ValueError it raises."""

    def test(self):
        try:
            got = weighted_mean(pairs)
        except ValueError as error:
            got = str(error)
        assert got == expected

    return test


# The worked example: three required options on side A, four options with
# weaker keywords on side B, only "a" and "b" occurring on both sides.
OPTIONS_A = (opt("a", MUST), opt("b", MUST), opt("c", MUST))
OPTIONS_B = (opt("a", RECOMMENDED), opt("b", OPTIONAL), opt("d", RECOMMENDED), opt("e", RECOMMENDED))
WORKED_PAIRS = [(0, 0), (1, 1)]

# A pair is worth 100 * (1 - |va - vb|), with MUST 1.0, RECOMMENDED 0.8,
# OPTIONAL 0.5 and NOT 0.0: MUST a vs RECOMMENDED a, MUST b vs OPTIONAL b.
PAIR_A, PAIR_B = 100 * (1 - abs(1.0 - 0.8)), 100 * (1 - abs(1.0 - 0.5))


class TestMatchOptions:
    # Without B's "a", A's "b" pairs with B's first option and is the best.
    test_worked_example_pairs = _scored(OPTIONS_A, OPTIONS_B[1:], OR, MERGE, [(1, 0)], PAIR_B)
    test_identical_single_option = _scored(
        (opt("x", MUST),), (opt("x", MUST),), OR, MERGE, [(0, 0)], 100 * (1 - abs(1.0 - 1.0))
    )
    # The second "x" of A finds no B option left, and counts 0 under AND.
    test_duplicate_phrase_consumed_once = _scored(
        (opt("x", MUST), opt("x", MUST)), (opt("x", MUST),), AND, MERGE, [(0, 0)], (100.0 + 0.0) / 2
    )
    test_earliest_unconsumed_b_wins = _scored(
        (opt("x", MUST),), (opt("x", NOT), opt("x", MUST)), OR, MERGE, [(0, 0)], 100 * (1 - abs(1.0 - 0.0))
    )
    test_missing_keyword_counts_as_must = _scored(
        (opt("x"),), (opt("x", RECOMMENDED),), OR, MERGE, [(0, 0)], 100 * (1 - abs(1.0 - 0.8))
    )
    test_phrase_equality_is_normalized = _scored(
        (opt("Document  Name", MUST),), (opt("document name", MUST),), OR, MERGE, [(0, 0)], 100.0
    )
    test_empty_lists = _scored(OPTIONS_A, (), OR, BOTH, [], (0.0, 100.0))

    # The factors are checked by the sweep of oracle_score against
    # score_option_lists.
    @settings(max_examples=1000, deadline=None)
    @given(
        options_a=option_lists(max_size=8, phrases=SPELLED_PHRASES),
        options_b=option_lists(max_size=8, phrases=SPELLED_PHRASES),
    )
    def test_pairs_agree_with_oracle(self, options_a, options_b):
        expected = [(index_a, index_b) for index_a, index_b, _ in oracle_matches(options_a, options_b)]
        assert match_options(options_a, options_b) == expected

    # A quadratic scan takes over ten seconds on each of these, the linear
    # one tens of milliseconds; the bound only has to tell them apart.
    @staticmethod
    def timed_match(phrases_a, phrases_b):
        options_a = [opt(phrase) for phrase in phrases_a]
        options_b = [opt(phrase) for phrase in phrases_b]
        started = time.perf_counter()
        matches = match_options(options_a, options_b)
        return matches, time.perf_counter() - started

    def test_disjoint_lists_match_in_linear_time(self):
        matches, elapsed = self.timed_match(
            [f"only a {i}" for i in range(20_000)],
            [f"only b {i}" for i in range(20_000)],
        )
        assert matches == []
        assert elapsed < 2.0, f"matching took {elapsed:.2f}s"

    def test_shared_lists_match_in_linear_time(self):
        # 10,000 shared phrases, in opposite orders and behind 10,000
        # one-sided options on the B side.
        shared = [f"shared {i}" for i in range(10_000)]
        matches, elapsed = self.timed_match(
            shared + [f"only a {i}" for i in range(10_000)],
            [f"only b {i}" for i in range(10_000)] + shared[::-1],
        )
        assert matches == [(i, 19_999 - i) for i in range(10_000)]
        assert elapsed < 2.0, f"matching took {elapsed:.2f}s"


class TestWorkedExample:
    @pytest.mark.parametrize("mode", BOTH)
    def test_or_connective_is_80(self, mode):
        _scored(OPTIONS_A, OPTIONS_B, OR, mode, WORKED_PAIRS, PAIR_A)(self)

    # AND divides by the larger count under merge, by A's under acquisition.
    test_and_merge_is_32_5 = _scored(OPTIONS_A, OPTIONS_B, AND, MERGE, WORKED_PAIRS, (PAIR_A + PAIR_B) / 4)
    test_and_acquire_is_130_over_3 = _scored(
        OPTIONS_A, OPTIONS_B, AND, ACQUIRE, WORKED_PAIRS, (PAIR_A + PAIR_B) / 3
    )
    test_no_connective_scores_like_and = _scored(
        OPTIONS_A, OPTIONS_B, NONE, BOTH, WORKED_PAIRS, ((PAIR_A + PAIR_B) / 4, (PAIR_A + PAIR_B) / 3)
    )


class TestEmptySideCases:
    test_a_has_options_b_none = _scored(OPTIONS_A, (), AND, BOTH, [], (0.0, 100.0))
    test_a_none_b_has_options = _scored((), OPTIONS_B, AND, BOTH, [], (0.0, 100.0))

    @pytest.mark.parametrize("mode", BOTH)
    def test_both_empty_is_vacuously_compatible(self, mode):
        _scored((), (), AND, mode, [], 100.0)(self)


def blend(own: float, aggregate: float, n_children: int) -> float:
    """A parent's combined score as compare computes it: its own options
    weigh 1, its children's aggregate one unit per child."""
    return weighted_mean(((own, 1), (aggregate, n_children)))


class TestCombineWithChildren:
    # Own score 100 weighs 1, the children's 75 one unit per child.
    test_two_children = _mean([(100.0, 1), (75.0, 2)], (100.0 + 75.0 * 2) / 3)
    test_eight_children = _mean([(100.0, 1), (75.0, 8)], (100.0 + 75.0 * 8) / 9)

    @given(
        score=st.floats(0, 100, allow_nan=False),
        n=st.integers(1, 50),
    )
    def test_fixed_point_when_scores_agree(self, score, n):
        assert blend(score, score, n) == pytest.approx(score)

    @given(
        own=st.floats(0, 100),
        lower=st.floats(0, 100),
        higher=st.floats(0, 100),
        n=st.integers(1, 20),
    )
    def test_monotone_in_child_aggregate(self, own, lower, higher, n):
        low, high = sorted((lower, higher))
        assert blend(own, low, n) <= blend(own, high, n) + 1e-12

    @given(
        own=st.floats(0, 100),
        aggregate=st.floats(0, 100),
        n=st.integers(1, 50),
    )
    def test_same_float_operations_as_the_documented_formula(self, own, aggregate, n):
        # README: (own + children * N) / (1 + N), bit for bit.
        assert blend(own, aggregate, n) == (own + aggregate * n) / (1 + n)


class TestChildAggregate:
    NO_WEIGHT = "weighted mean needs a positive total weight"

    test_single_child = _mean([(75.0, 1)], 75.0)
    test_symmetric_mean = _mean([(100.0, 1), (50.0, 1)], (100.0 + 50.0) / 2)
    test_weighted_mean = _mean([(100.0, 3), (0.0, 1)], (100.0 * 3 + 0.0 * 1) / 4)
    test_rejects_empty = _mean([], NO_WEIGHT)
    test_rejects_zero_total_weight = _mean([(50.0, 0), (100.0, 0)], NO_WEIGHT)


def grid_option_lists() -> list[tuple[PolicyOption, ...]]:
    """Every ordered list of up to three distinctly-phrased options, each
    option carrying one of the four keywords."""
    return [
        tuple(map(PolicyOption, phrases, keywords))
        for size in range(4)
        for phrases in permutations("abc", size)
        for keywords in product(Keyword, repeat=size)
    ]


class TestAgainstOracle:
    def test_exhaustive_sweep(self):
        started = time.perf_counter()
        lists = grid_option_lists()
        assert len(lists) == 493
        cases = 0
        for connective in (Connective.AND, Connective.OR):
            sided = [para(options, connective) for options in lists]
            for mode in (MERGE, ACQUIRE):
                for options_a, paragraph_a in zip(lists, sided):
                    for options_b, paragraph_b in zip(lists, sided):
                        got = score_paragraph_options(paragraph_a, paragraph_b, mode)
                        want = oracle_score(options_a, options_b, connective, mode)
                        if abs(got - want) > 1e-9:
                            raise AssertionError(
                                f"mismatch: {options_a} vs {options_b} "
                                f"{connective} {mode}: {got} != {want}"
                            )
                        cases += 1
        elapsed = time.perf_counter() - started
        assert cases == 972_196
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"

    @given(
        options_a=option_lists(),
        options_b=option_lists(),
        connective=connectives(),
        mode=modes(),
    )
    def test_randomized_agreement(self, options_a, options_b, connective, mode):
        got = score_option_lists(options_a, options_b, connective, mode)
        expected = oracle_score(options_a, options_b, connective, mode)
        assert abs(got - expected) <= 1e-9


# One keyword per phrase, so options matched by phrase agree on it.
KEYWORD_OF_PHRASE = dict(zip(SCORING_PHRASES, Keyword))


class TestScoringProperties:
    @settings(max_examples=1000, deadline=None)
    @given(
        options_a=option_lists(),
        options_b=option_lists(),
        connective=connectives(),
        mode=modes(),
    )
    def test_scores_stay_in_range(self, options_a, options_b, connective, mode):
        score = score_option_lists(options_a, options_b, connective, mode)
        assert 0.0 <= score <= 100.0

    @settings(max_examples=1000, deadline=None)
    @given(
        options=option_lists(),
        connective=connectives(),
        mode=modes(),
    )
    def test_self_comparison_is_100(self, options, connective, mode):
        p = para(options, connective)
        assert abs(score_paragraph_options(p, p, mode) - 100.0) <= 1e-9

    @settings(max_examples=1000, deadline=None)
    @given(
        options_a=option_lists(),
        options_b=option_lists(),
        connective=connectives(),
    )
    def test_merge_mode_is_symmetric(self, options_a, options_b, connective):
        forward = score_option_lists(options_a, options_b, connective, MERGE)
        backward = score_option_lists(options_b, options_a, connective, MERGE)
        assert abs(forward - backward) <= 1e-9

    @settings(max_examples=1000, deadline=None)
    @given(
        options_a=option_lists(min_size=1),
        options_b=option_lists(min_size=1),
        mode=modes(),
    )
    def test_or_dominates_and(self, options_a, options_b, mode):
        or_score = score_option_lists(options_a, options_b, Connective.OR, mode)
        and_score = score_option_lists(options_a, options_b, Connective.AND, mode)
        assert or_score >= and_score - 1e-9

    # Keyword-free lists, or one keyword per phrase: either way every pair
    # factor is exactly 1.
    @settings(max_examples=1000, deadline=None)
    @given(
        options_a=option_lists(min_size=1),
        options_b=option_lists(min_size=1),
        keyed=st.booleans(),
    )
    def test_keyword_free_and_reduces_to_match_ratio(self, options_a, options_b, keyed):
        keyword = KEYWORD_OF_PHRASE.get if keyed else lambda phrase: None
        unit_a = tuple(opt(o.phrase, keyword(o.phrase)) for o in options_a)
        unit_b = tuple(opt(o.phrase, keyword(o.phrase)) for o in options_b)
        score = score_option_lists(unit_a, unit_b, Connective.AND, MERGE)
        n_matched = len(match_options(unit_a, unit_b))
        expected = 100.0 * n_matched / max(len(unit_a), len(unit_b))
        assert abs(score - expected) <= 1e-9
