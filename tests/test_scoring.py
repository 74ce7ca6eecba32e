"""Unit tests for option matching and paragraph scoring."""

from __future__ import annotations

import time

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
)
from cpcompat.scoring import (
    child_aggregate,
    combine_with_children,
    match_options,
    score_option_lists,
    score_paragraph_options,
)

from oracle import oracle_matches, oracle_score
from strategies import (
    SPELLED_PHRASES,
    connectives,
    declared_connectives,
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
    def test_worked_example_pairs(self):
        matches = match_options(OPTIONS_A, OPTIONS_B)
        assert [(m.index_a, m.index_b) for m in matches] == [(0, 0), (1, 1)]
        assert matches[0].keyword_factor == pytest.approx(0.8, abs=1e-12)
        assert matches[1].keyword_factor == pytest.approx(0.5, abs=1e-12)

    def test_identical_single_option(self):
        a = (opt("x", Keyword.MUST),)
        matches = match_options(a, a)
        assert len(matches) == 1
        assert matches[0].keyword_factor == 1.0

    def test_duplicate_phrase_consumed_once(self):
        a = (opt("x", Keyword.MUST), opt("x", Keyword.MUST))
        b = (opt("x", Keyword.MUST),)
        matches = match_options(a, b)
        assert len(matches) == 1
        assert (matches[0].index_a, matches[0].index_b) == (0, 0)

    def test_earliest_unconsumed_b_wins(self):
        a = (opt("x", Keyword.MUST),)
        b = (opt("x", Keyword.NOT), opt("x", Keyword.MUST))
        matches = match_options(a, b)
        assert [(m.index_a, m.index_b) for m in matches] == [(0, 0)]
        assert matches[0].keyword_factor == pytest.approx(0.0, abs=1e-12)

    def test_missing_keyword_counts_as_must(self):
        matches = match_options((opt("x"),), (opt("x", Keyword.RECOMMENDED),))
        assert matches[0].keyword_factor == pytest.approx(0.8, abs=1e-12)

    def test_phrase_equality_is_normalized(self):
        matches = match_options(
            (opt("Document  Name", Keyword.MUST),),
            (opt("document name", Keyword.MUST),),
        )
        assert len(matches) == 1

    def test_empty_lists(self):
        assert match_options((), ()) == []
        assert match_options(OPTIONS_A, ()) == []

    @settings(max_examples=1000, deadline=None)
    @given(
        options_a=option_lists(max_size=8, phrases=SPELLED_PHRASES),
        options_b=option_lists(max_size=8, phrases=SPELLED_PHRASES),
    )
    def test_pairs_agree_with_oracle(self, options_a, options_b):
        matches = match_options(options_a, options_b)
        got = [(m.index_a, m.index_b, m.keyword_factor) for m in matches]
        assert got == oracle_matches(options_a, options_b)

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
        assert [(m.index_a, m.index_b) for m in matches] == [
            (i, 19_999 - i) for i in range(10_000)
        ]
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


class TestCombineWithChildren:
    def test_two_children(self):
        combined = combine_with_children(100.0, 75.0, 2)
        assert abs(combined - 250.0 / 3.0) <= 1e-9
        assert combined == pytest.approx(83.3, abs=0.05)

    def test_eight_children(self):
        combined = combine_with_children(100.0, 75.0, 8)
        assert abs(combined - 700.0 / 9.0) <= 1e-9
        assert combined == pytest.approx(77.8, abs=0.05)

    @given(
        score=st.floats(0, 100, allow_nan=False),
        n=st.integers(1, 50),
    )
    def test_fixed_point_when_scores_agree(self, score, n):
        assert combine_with_children(score, score, n) == pytest.approx(score)

    @given(
        own=st.floats(0, 100),
        lower=st.floats(0, 100),
        higher=st.floats(0, 100),
        n=st.integers(1, 20),
    )
    def test_monotone_in_child_aggregate(self, own, lower, higher, n):
        low, high = sorted((lower, higher))
        assert combine_with_children(own, low, n) <= combine_with_children(own, high, n) + 1e-12

    def test_rejects_zero_children(self):
        with pytest.raises(ValueError):
            combine_with_children(50.0, 50.0, 0)


class TestChildAggregate:
    def test_single_child(self):
        assert child_aggregate([(75.0, 1)]) == 75.0

    def test_symmetric_mean(self):
        assert child_aggregate([(100.0, 1), (50.0, 1)]) == 75.0

    def test_weighted_mean(self):
        # 300 / 4, computed by hand
        assert child_aggregate([(100.0, 3), (0.0, 1)]) == 75.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            child_aggregate([])


class TestAgainstOracle:
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


class TestScoringProperties:
    @given(
        options_a=option_lists(),
        options_b=option_lists(),
        connective=connectives(),
        mode=modes(),
    )
    def test_scores_stay_in_range(self, options_a, options_b, connective, mode):
        score = score_option_lists(options_a, options_b, connective, mode)
        assert 0.0 <= score <= 100.0

    @given(
        options=option_lists(min_size=1),
        connective=connectives(),
        mode=modes(),
    )
    def test_self_comparison_is_100(self, options, connective, mode):
        p = para(options, connective)
        assert score_paragraph_options(p, p, mode) == pytest.approx(100.0, abs=1e-9)

    @given(
        options_a=option_lists(min_size=1),
        options_b=option_lists(min_size=1),
        connective=declared_connectives(),
    )
    def test_merge_mode_is_symmetric(self, options_a, options_b, connective):
        forward = score_option_lists(options_a, options_b, connective, MERGE)
        backward = score_option_lists(options_b, options_a, connective, MERGE)
        assert abs(forward - backward) <= 1e-9

    @given(
        options_a=option_lists(min_size=1),
        options_b=option_lists(min_size=1),
        mode=modes(),
    )
    def test_or_dominates_and(self, options_a, options_b, mode):
        or_score = score_option_lists(options_a, options_b, Connective.OR, mode)
        and_score = score_option_lists(options_a, options_b, Connective.AND, mode)
        assert or_score >= and_score - 1e-9

    @given(
        options_a=option_lists(min_size=1),
        options_b=option_lists(min_size=1),
    )
    def test_keyword_free_and_reduces_to_match_ratio(self, options_a, options_b):
        bare_a = tuple(opt(o.phrase) for o in options_a)
        bare_b = tuple(opt(o.phrase) for o in options_b)
        score = score_option_lists(bare_a, bare_b, Connective.AND, MERGE)
        n_matched = len(match_options(bare_a, bare_b))
        expected = 100.0 * n_matched / max(len(bare_a), len(bare_b))
        assert abs(score - expected) <= 1e-9
