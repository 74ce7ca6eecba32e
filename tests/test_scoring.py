"""Unit tests for option matching and paragraph scoring."""

from __future__ import annotations

import time
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpcompat.model import (
    Connective,
    ComparisonMode,
    Keyword,
    NumberPath,
    Paragraph,
    PolicyOption,
    weighted_mean,
)
from cpcompat.scoring import (
    match_options,
    score_option_lists,
    score_paragraph_options,
)

from oracle import oracle_matches, oracle_score
from strategies import (
    SCORING_PHRASES,
    SPELLED_PHRASES,
    connectives,
    modes,
    option_lists,
)

MERGE = ComparisonMode.MERGE
ACQUIRE = ComparisonMode.ACQUIRE


def opt(phrase: str, keyword: Keyword | None = None) -> PolicyOption:
    return PolicyOption(phrase=phrase, keyword=keyword)


def para(
    options: tuple[PolicyOption, ...],
    connective: Connective = Connective.NONE,
    path: tuple[int, ...] = (1,),
) -> Paragraph:
    return Paragraph(path=NumberPath(path), title="T", options=options, connective=connective)


# The worked example: three required options on side A, four options with
# weaker keywords on side B, only "a" and "b" occurring on both sides.
OPTIONS_A = (
    opt("a", Keyword.MUST),
    opt("b", Keyword.MUST),
    opt("c", Keyword.MUST),
)
OPTIONS_B = (
    opt("a", Keyword.RECOMMENDED),
    opt("b", Keyword.OPTIONAL),
    opt("d", Keyword.RECOMMENDED),
    opt("e", Keyword.RECOMMENDED),
)


class TestMatchOptions:
    """Pairs as (index_a, index_b). A pair's keyword factor shows as the OR
    score of the two options alone, which is 100 times the factor."""

    @staticmethod
    def pair_score(option_a: PolicyOption, option_b: PolicyOption) -> float:
        return score_option_lists((option_a,), (option_b,), Connective.OR, MERGE)

    def test_worked_example_pairs(self):
        assert match_options(OPTIONS_A, OPTIONS_B) == [(0, 0), (1, 1)]
        assert self.pair_score(OPTIONS_A[0], OPTIONS_B[0]) == pytest.approx(80.0, abs=1e-10)
        assert self.pair_score(OPTIONS_A[1], OPTIONS_B[1]) == pytest.approx(50.0, abs=1e-10)

    def test_identical_single_option(self):
        a = (opt("x", Keyword.MUST),)
        assert match_options(a, a) == [(0, 0)]
        assert self.pair_score(a[0], a[0]) == 100.0

    def test_duplicate_phrase_consumed_once(self):
        a = (opt("x", Keyword.MUST), opt("x", Keyword.MUST))
        b = (opt("x", Keyword.MUST),)
        assert match_options(a, b) == [(0, 0)]

    def test_earliest_unconsumed_b_wins(self):
        a = (opt("x", Keyword.MUST),)
        b = (opt("x", Keyword.NOT), opt("x", Keyword.MUST))
        assert match_options(a, b) == [(0, 0)]
        assert self.pair_score(a[0], b[0]) == pytest.approx(0.0, abs=1e-10)

    def test_missing_keyword_counts_as_must(self):
        a, b = (opt("x"),), (opt("x", Keyword.RECOMMENDED),)
        assert match_options(a, b) == [(0, 0)]
        assert self.pair_score(a[0], b[0]) == pytest.approx(80.0, abs=1e-10)

    def test_phrase_equality_is_normalized(self):
        matches = match_options(
            (opt("Document  Name", Keyword.MUST),),
            (opt("document name", Keyword.MUST),),
        )
        assert matches == [(0, 0)]

    def test_empty_lists(self):
        assert match_options((), ()) == []
        assert match_options(OPTIONS_A, ()) == []

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
    """Frozen paragraph scores for the documented option lists."""

    @pytest.mark.parametrize("mode", [MERGE, ACQUIRE])
    def test_or_connective_is_80(self, mode):
        p_a = para(OPTIONS_A, Connective.OR)
        p_b = para(OPTIONS_B, Connective.OR)
        assert score_paragraph_options(p_a, p_b, mode) == 80.0

    def test_and_merge_is_32_5(self):
        p_a = para(OPTIONS_A, Connective.AND)
        p_b = para(OPTIONS_B, Connective.AND)
        assert score_paragraph_options(p_a, p_b, MERGE) == 32.5

    def test_and_acquire_is_130_over_3(self):
        p_a = para(OPTIONS_A, Connective.AND)
        p_b = para(OPTIONS_B, Connective.AND)
        score = score_paragraph_options(p_a, p_b, ACQUIRE)
        assert abs(score - 130.0 / 3.0) <= 1e-9
        assert score == pytest.approx(43.3, abs=0.05)

    def test_no_connective_scores_like_and(self):
        p_a = para(OPTIONS_A, Connective.NONE)
        p_b = para(OPTIONS_B, Connective.NONE)
        assert score_paragraph_options(p_a, p_b, MERGE) == 32.5


class TestEmptySideCases:
    def test_a_has_options_b_none(self):
        p_a = para(OPTIONS_A)
        p_b = para(())
        assert score_paragraph_options(p_a, p_b, MERGE) == 0.0
        assert score_paragraph_options(p_a, p_b, ACQUIRE) == 100.0

    def test_a_none_b_has_options(self):
        p_a = para(())
        p_b = para(OPTIONS_B)
        assert score_paragraph_options(p_a, p_b, MERGE) == 0.0
        assert score_paragraph_options(p_a, p_b, ACQUIRE) == 100.0

    @pytest.mark.parametrize("mode", [MERGE, ACQUIRE])
    def test_both_empty_is_vacuously_compatible(self, mode):
        assert score_paragraph_options(para(()), para(()), mode) == 100.0


def blend(own: float, aggregate: float, n_children: int) -> float:
    """A parent's combined score as compare computes it: its own options
    weigh 1, its children's aggregate one unit per child."""
    return weighted_mean(((own, 1), (aggregate, n_children)))


class TestCombineWithChildren:
    def test_two_children(self):
        combined = blend(100.0, 75.0, 2)
        assert abs(combined - 250.0 / 3.0) <= 1e-9
        assert combined == pytest.approx(83.3, abs=0.05)

    def test_eight_children(self):
        combined = blend(100.0, 75.0, 8)
        assert abs(combined - 700.0 / 9.0) <= 1e-9
        assert combined == pytest.approx(77.8, abs=0.05)

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
    def test_single_child(self):
        assert weighted_mean([(75.0, 1)]) == 75.0

    def test_symmetric_mean(self):
        assert weighted_mean([(100.0, 1), (50.0, 1)]) == 75.0

    def test_weighted_mean(self):
        # 300 / 4, computed by hand
        assert weighted_mean([(100.0, 3), (0.0, 1)]) == 75.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            weighted_mean([])

    def test_rejects_zero_total_weight(self):
        with pytest.raises(ValueError):
            weighted_mean([(50.0, 0), (100.0, 0)])


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
