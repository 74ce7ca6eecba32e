"""Tests for whole-policy comparison and report serialization.

Each example pair is a row, asserted in full by ``_compared``: the mode,
names, rows, totals and diagnostics of the report, in one equality, with
figures written from README's "How scoring works" and compared exactly.
The randomized properties and the tests of the report API follow the rows.
"""

from __future__ import annotations

import builtins
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpcompat.comparison import compare, report_to_json
from cpcompat.model import (
    ComparisonDiagnostic,
    ComparisonMode,
    ComparisonReport,
    MatchStatus,
    NumberPath,
    ParagraphScore,
)

from conftest import WORKED_POLICY_A_TEXT as WORKED_A, WORKED_POLICY_B_TEXT as WORKED_B, policy_from
from oracle import oracle_report_dict
from strategies import api_reports, modes, policies, policy_pairs, policy_pairs_same_outline
from test_docs import section

MERGE = ComparisonMode.MERGE
ACQUIRE = ComparisonMode.ACQUIRE
MATCHED, BOTH_EMPTY = MatchStatus.MATCHED, MatchStatus.BOTH_EMPTY
MISSING_IN_A, MISSING_IN_B = MatchStatus.MISSING_IN_A, MatchStatus.MISSING_IN_B


def _missing(status, dotted):
    return (status.name, dotted, f"section {dotted} has no counterpart")


def _titles(dotted, a, b):
    return ("TITLE_MISMATCH", dotted, f"section {dotted} is titled {a!r} in one policy and {b!r} in the other")


def _connectives(dotted, a, b):
    message = f"section {dotted} declares {a} in one policy and {b} in the other; the first policy's connective governs"
    return ("CONNECTIVE_MISMATCH", dotted, message)


# The expected report rows and diagnostics of every row.
COMPARED = []


def _compared(a_text, b_text, mode, rows, totals, diagnostics):
    """A test that ``a_text`` as policy "A", compared with ``b_text`` as "B"
    in ``mode``, gives exactly ``rows``, each (path, own, aggregate,
    combined, weight, status), the (weighted, unweighted) ``totals`` and
    ``diagnostics``, each (code, path, message)."""
    scores = tuple(ParagraphScore(NumberPath.parse(path), *fields) for path, *fields in rows)
    notes = tuple(ComparisonDiagnostic(code, NumberPath.parse(path), message) for code, path, message in diagnostics)
    expected = (mode, "A", "B", scores, totals, notes)
    COMPARED.append((scores, notes))

    def test(self):
        report = compare(policy_from(a_text, "A"), policy_from(b_text, "B"), mode)
        totals = (report.overall_weighted, report.overall_unweighted)
        names = (report.policy_a_name, report.policy_b_name)
        assert (report.mode, *names, report.paragraph_scores, totals, report.diagnostics) == expected

    return test


# MUST a vs RECOMMENDED a is worth 80, MUST b vs OPTIONAL b 50, and c, d and e
# match nothing: AND divides by the larger count under merge, by A's under
# acquisition.
WORKED_MERGE, WORKED_ACQUIRE = (80.0 + 50.0) / 4, (80.0 + 50.0) / 3


class TestWorkedExampleReport:
    test_merge_score = _compared(
        WORKED_A, WORKED_B, MERGE, [("1", WORKED_MERGE, None, WORKED_MERGE, 1, MATCHED)], (32.5, 32.5), []
    )
    test_acquire_score = _compared(
        WORKED_A, WORKED_B, ACQUIRE, [("1", WORKED_ACQUIRE, None, WORKED_ACQUIRE, 1, MATCHED)],
        (WORKED_ACQUIRE, WORKED_ACQUIRE), [],
    )
    # The other way round: the report names its first argument A, and merge
    # divides by the larger count whichever side has it.
    test_report_names_and_mode = _compared(
        WORKED_B, WORKED_A, MERGE, [("1", WORKED_MERGE, None, WORKED_MERGE, 1, MATCHED)], (32.5, 32.5), []
    )


class TestChildCombination:
    A_TEXT = "1 TOP\n1.1 ONE 1\na) MUST x\n1.2 TWO 3\na) MUST y\n"
    ALL_MATCH = [("1.1", 100.0, None, 100.0, 1, MATCHED), ("1.2", 100.0, None, 100.0, 3, MATCHED)]

    # Section 1 has no options on either side, a vacuous 100. Its children
    # score 100 (weight 1) and 0 (weight 3), and the two blend with it.
    test_parent_blends_own_and_children = _compared(
        A_TEXT, "1 TOP\n1.1 ONE 1\na) MUST x\n1.2 TWO 3\na) MUST z\n", MERGE,
        [("1", 100.0, (100.0 * 1 + 0.0 * 3) / 4, (100.0 + 25.0 * 2) / 3, 1, BOTH_EMPTY),
         ("1.1", 100.0, None, 100.0, 1, MATCHED), ("1.2", 0.0, None, 0.0, 3, MATCHED)],
        (50.0, 50.0), [],
    )
    # A B-only child has a row but stays out of the aggregate over A's.
    test_extra_b_children_do_not_dilute = _compared(
        A_TEXT, A_TEXT + "1.3 EXTRA 9\na) MUST z\n", MERGE,
        [("1", 100.0, 100.0, 100.0, 1, BOTH_EMPTY), *ALL_MATCH, ("1.3", 0.0, None, 0.0, 1, MISSING_IN_A)],
        (100.0, 100.0), [_missing(MISSING_IN_A, "1.3")],
    )
    test_leaf_rows_have_no_aggregate = _compared(
        A_TEXT, A_TEXT, MERGE, [("1", 100.0, 100.0, 100.0, 1, BOTH_EMPTY), *ALL_MATCH], (100.0, 100.0), []
    )


class TestMissingParagraphs:
    TWO, ONE = "1 TOP\na) MUST x\n2 NEXT\na) MUST y\n", "1 TOP\na) MUST x\n"
    FIRST = ("1", 100.0, None, 100.0, 1, MATCHED)

    test_missing_in_b_scores_zero_under_merge = _compared(
        TWO, ONE, MERGE, [FIRST, ("2", 0.0, None, 0.0, 1, MISSING_IN_B)], (50.0, 50.0), [_missing(MISSING_IN_B, "2")]
    )
    test_missing_in_b_is_superseded_under_acquire = _compared(
        TWO, ONE, ACQUIRE, [FIRST, ("2", 100.0, None, 100.0, 1, MISSING_IN_B)], (100.0, 100.0),
        [_missing(MISSING_IN_B, "2")],
    )
    # Nothing was required, so nothing is incompatible.
    test_optionless_paragraph_missing_in_b = _compared(
        "1 TOP\na) MUST x\n2 NEXT\n", ONE, MERGE, [FIRST, ("2", 100.0, None, 100.0, 1, MISSING_IN_B)],
        (100.0, 100.0), [_missing(MISSING_IN_B, "2")],
    )
    # One child at 0 blends with a vacuous 100 as (100 + 0 * 1) / 2.
    test_missing_subtree_rows_are_reported = _compared(
        "1 TOP\n1.1 SUB\na) MUST x\n", "1 TOP\n", MERGE,
        [("1", 100.0, 0.0, 50.0, 1, BOTH_EMPTY), ("1.1", 0.0, None, 0.0, 1, MISSING_IN_B)], (50.0, 50.0),
        [_missing(MISSING_IN_B, "1.1")],
    )
    # A's sections, then B's in B's order. B's optionless 3 scores a vacuous
    # 100, and all three are top-level rows of weight 1.
    test_b_only_rows_follow_a_rows = _compared(
        "2 ONLY A\na) MUST x\n", "1 ONLY B\na) MUST y\n3 ALSO B\n", MERGE,
        [("2", 0.0, None, 0.0, 1, MISSING_IN_B), ("1", 0.0, None, 0.0, 1, MISSING_IN_A),
         ("3", 100.0, None, 100.0, 1, MISSING_IN_A)],
        (100.0 / 3, 100.0 / 3),
        [_missing(MISSING_IN_B, "2"), _missing(MISSING_IN_A, "1"), _missing(MISSING_IN_A, "3")],
    )
    test_both_empty_status = _compared(
        "1 TOP\n", "1 TOP\n", MERGE, [("1", 100.0, None, 100.0, 1, BOTH_EMPTY)], (100.0, 100.0), []
    )


class TestOverallScores:
    # Weighted (100 * 3 + 0 * 1) / 4, unweighted (100 + 0) / 2.
    test_weighted_and_unweighted_differ = _compared(
        "1 GOOD 3\na) MUST x\n2 BAD 1\na) MUST y\n", "1 GOOD 3\na) MUST x\n2 BAD 1\na) MUST z\n", MERGE,
        [("1", 100.0, None, 100.0, 3, MATCHED), ("2", 0.0, None, 0.0, 1, MATCHED)], (75.0, 50.0), [],
    )
    # The 0 of 1.1 reaches the totals only through its parent's (100 + 0) / 2.
    test_only_top_level_rows_enter_overall = _compared(
        "1 TOP\n1.1 SUB\na) MUST x\n", "1 TOP\n1.1 SUB\na) MUST y\n", MERGE,
        [("1", 100.0, 0.0, 50.0, 1, BOTH_EMPTY), ("1.1", 0.0, None, 0.0, 1, MATCHED)], (50.0, 50.0), [],
    )
    test_empty_policies_are_fully_compatible = _compared("", "", MERGE, [], (100.0, 100.0), [])
    test_empty_a_nonempty_b_merge = _compared(
        "", "1 TOP\na) MUST x\n", MERGE, [("1", 0.0, None, 0.0, 1, MISSING_IN_A)], (0.0, 0.0),
        [_missing(MISSING_IN_A, "1")],
    )
    test_empty_a_nonempty_b_acquire = _compared(
        "", "1 TOP\na) MUST x\n", ACQUIRE, [("1", 100.0, None, 100.0, 1, MISSING_IN_A)], (100.0, 100.0),
        [_missing(MISSING_IN_A, "1")],
    )


class TestDiagnostics:
    EMPTY = [("1", 100.0, None, 100.0, 1, BOTH_EMPTY)]

    test_title_mismatch = _compared(
        "1 OVERVIEW\n", "1 SUMMARY\n", MERGE, EMPTY, (100.0, 100.0), [_titles("1", "OVERVIEW", "SUMMARY")]
    )
    test_title_comparison_ignores_case_and_spacing = _compared(
        "1 KEY   MANAGEMENT\n", "1 Key Management\n", MERGE, EMPTY, (100.0, 100.0), []
    )
    # A's AND governs: x matches and y does not, over the larger count of 2.
    # B's OR would score 100.
    test_connective_mismatch_uses_a_side = _compared(
        "1 T\na) MUST x\nb) MUST y\nConnection AND\n", "1 T\na) MUST x\nConnection OR\n", MERGE,
        [("1", 100.0 / 2, None, 100.0 / 2, 1, MATCHED)], (50.0, 50.0), [_connectives("1", "AND", "OR")],
    )
    # A declares none, so B's OR governs: the best pair is worth 100.
    test_undeclared_side_adopts_declared_connective = _compared(
        "1 T\na) MUST x\nb) MUST y\n", "1 T\na) MUST x\nConnection OR\n", MERGE,
        [("1", 100.0, None, 100.0, 1, MATCHED)], (100.0, 100.0), [],
    )
    test_pair_order_with_title_before_connective = _compared(
        "1 OVERVIEW\na) MUST x\nConnection AND\n2 SCOPE\n", "1 SUMMARY\na) MUST x\nConnection OR\n2 RANGE\n",
        MERGE, [("1", 100.0, None, 100.0, 1, MATCHED), ("2", 100.0, None, 100.0, 1, BOTH_EMPTY)], (100.0, 100.0),
        [_titles("1", "OVERVIEW", "SUMMARY"), _connectives("1", "AND", "OR"), _titles("2", "SCOPE", "RANGE")],
    )
    test_missing_diagnostics_name_paths = _compared(
        "1 A\na) MUST x\n", "2 B\na) MUST x\n", MERGE,
        [("1", 0.0, None, 0.0, 1, MISSING_IN_B), ("2", 0.0, None, 0.0, 1, MISSING_IN_A)], (0.0, 0.0),
        [_missing(MISSING_IN_B, "1"), _missing(MISSING_IN_A, "2")],
    )


def test_compared_rows_show_every_documented_code_and_status():
    """The rows' codes are those of CLI.md's ``code`` row and their statuses
    those of its ``match_status`` row, so a new one needs a row."""
    schema = section("CLI.md", "JSON report schema")
    rows = re.findall(r"^\| `(code|match_status)` \| string \| (.*) \|$", schema, re.MULTILINE)
    documented = {field: set(re.findall(r'"(\w+)"', values)) for field, values in rows}
    shown = {
        "code": {note.code for _, notes in COMPARED for note in notes},
        "match_status": {score.match_status.value for scores, _ in COMPARED for score in scores},
    }
    assert shown == documented


class TestReportSerialization:
    # Each field of a row holds a value of its own: 1 blends an own 80 with
    # its one child's 25, and under A's AND, 1.1 scores (50 + 0) / 2.
    test_dict_shape = _compared(
        "1 ROOT 2\na) MUST x\n1.1 LEAF 3\na) MUST y\nb) MUST z\nConnection AND\n",
        "1 ROOT 2\na) RECOMMENDED x\n1.1 LEAF 3\na) OPTIONAL y\n", MERGE,
        [("1", 80.0, 25.0, (80.0 + 25.0 * 1) / 2, 2, MATCHED), ("1.1", (50.0 + 0.0) / 2, None, 25.0, 3, MATCHED)],
        (52.5, 52.5), [],
    )
    # B's optionless 2 is vacuously compatible: (0 + 100) / 2 overall.
    test_diagnostics_serialize_with_paths = _compared(
        "1 A\na) MUST x\n", "2 B\n", MERGE,
        [("1", 0.0, None, 0.0, 1, MISSING_IN_B), ("2", 100.0, None, 100.0, 1, MISSING_IN_A)], (50.0, 50.0),
        [_missing(MISSING_IN_B, "1"), _missing(MISSING_IN_A, "2")],
    )

    def test_json_round_trip(self):
        report = compare(policy_from(WORKED_A, "A"), policy_from(WORKED_B, "B"), ACQUIRE)
        assert json.loads(report_to_json(report)) == oracle_report_dict(report)

    @settings(max_examples=1000, deadline=None)
    @given(
        report=st.one_of(
            st.builds(lambda pair, mode: compare(*pair, mode), policy_pairs(), modes()),
            api_reports(),
        )
    )
    def test_bytes_are_json_dumps_of_the_oracle(self, report):
        expected = json.dumps(oracle_report_dict(report), indent=2, ensure_ascii=False)
        assert report_to_json(report) == expected


class TestReportLookup:
    def report(self):
        a = policy_from("1 A\n1.1 Aa\na) MUST x\n2 B\n", name="A")
        b = policy_from("1 A\n1.2 Ab\n2 B\na) MUST y\n", name="B")
        return compare(a, b, MERGE)

    def test_find_absent_path_is_none(self):
        assert self.report().find(NumberPath.parse("3.1")) is None

    def test_duplicate_paths_rejected(self):
        row = ParagraphScore(
            path=NumberPath.parse("1"),
            own_score=50.0,
            child_aggregate=None,
            combined_score=50.0,
            weight=1,
            match_status=MatchStatus.MATCHED,
        )
        with pytest.raises(ValueError, match="only once"):
            ComparisonReport(
                mode=MERGE,
                policy_a_name="A",
                policy_b_name="B",
                paragraph_scores=(row, row),
            )

    def test_index_is_not_a_field(self):
        report = self.report()
        declared = [
            "mode",
            "policy_a_name",
            "policy_b_name",
            "paragraph_scores",
            "overall_weighted",
            "overall_unweighted",
            "diagnostics",
        ]
        assert ComparisonReport.__slots__ == (*declared, "_by_path")
        assert repr(report) == "ComparisonReport({})".format(
            ", ".join(f"{name}={getattr(report, name)!r}" for name in declared)
        )

    def test_equal_reports_compare_and_hash_equal(self):
        first, second = self.report(), self.report()
        assert first == second
        assert hash(first) == hash(second)


class TestReportTotals:
    # Top-level rows 40 (weight 3) and 80 (weight 1): weighted 50, unweighted
    # 60. The 1.1 row sits below the top level and does not count.
    ROWS = tuple(
        ParagraphScore(
            path=NumberPath.parse(path),
            own_score=score,
            child_aggregate=None,
            combined_score=score,
            weight=weight,
            match_status=MatchStatus.MATCHED,
        )
        for path, score, weight in (("1", 40.0, 3), ("1.1", 0.0, 5), ("2", 80.0, 1))
    )

    def report(self) -> ComparisonReport:
        return ComparisonReport(
            mode=MERGE,
            policy_a_name="A",
            policy_b_name="B",
            paragraph_scores=self.ROWS,
        )

    def test_totals_are_derived_from_top_level_rows(self):
        report = self.report()
        assert report.overall_weighted == pytest.approx(50.0, abs=1e-9)
        assert report.overall_unweighted == pytest.approx(60.0, abs=1e-9)

    def test_totals_cannot_be_passed_in(self):
        with pytest.raises(TypeError):
            ComparisonReport(
                mode=MERGE,
                policy_a_name="A",
                policy_b_name="B",
                paragraph_scores=self.ROWS,
                overall_weighted=50.0,
            )


class TestSameReportOnEveryInterpreter:
    """The builtin sum() of floats is compensated from Python 3.12 on, as
    math.fsum is. Reports must not depend on which one an interpreter has."""

    @staticmethod
    def ten_rows_of_a_tenth() -> ComparisonReport:
        rows = [
            ParagraphScore(NumberPath((n,)), 0.1, None, 0.1, 1, MatchStatus.MATCHED)
            for n in range(1, 11)
        ]
        return ComparisonReport(MERGE, "A", "B", rows)

    # Under AND, three RECOMMENDED vs NOT pairs (19.999999999999996 each) and
    # one MUST vs OPTIONAL pair (50) add up to 110.0 left to right but to
    # 109.99999999999999 compensated.
    AND_A = "1 TOP\nConnection AND\nRECOMMENDED p\nRECOMMENDED q\nMUST r\nRECOMMENDED s\n"
    AND_B = "1 TOP\nConnection AND\nNOT p\nNOT q\nOPTIONAL r\nNOT s\n"

    def and_report(self) -> ComparisonReport:
        return compare(policy_from(self.AND_A, "A"), policy_from(self.AND_B, "B"), MERGE)

    def test_totals_do_not_change_with_a_compensated_sum(self, monkeypatch):
        report = self.ten_rows_of_a_tenth()
        assert report.overall_unweighted == 0.09999999999999999
        monkeypatch.setattr(builtins, "sum", math.fsum)
        assert self.ten_rows_of_a_tenth() == report
        assert self.ten_rows_of_a_tenth().overall_unweighted == report.overall_unweighted
        assert self.ten_rows_of_a_tenth().overall_weighted == report.overall_weighted

    def test_and_score_does_not_change_with_a_compensated_sum(self, monkeypatch):
        report = self.and_report()
        assert report.paragraph_scores[0].own_score == 110.0 / 4
        monkeypatch.setattr(builtins, "sum", math.fsum)
        assert report_to_json(self.and_report()) == report_to_json(report)


class TestComparisonProperties:
    @settings(max_examples=150, deadline=None)
    @given(policy=policies())
    def test_self_comparison_is_perfect(self, policy):
        for mode in (MERGE, ACQUIRE):
            report = compare(policy, policy, mode)
            assert report.overall_weighted == pytest.approx(100.0, abs=1e-9)
            assert report.overall_unweighted == pytest.approx(100.0, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(pair=policy_pairs_same_outline())
    def test_merge_is_symmetric_on_shared_outlines(self, pair):
        a, b = pair
        forward = compare(a, b, MERGE)
        backward = compare(b, a, MERGE)
        assert forward.overall_weighted == pytest.approx(
            backward.overall_weighted, abs=1e-9
        )

    @settings(max_examples=150, deadline=None)
    @given(pair=policy_pairs())
    def test_scores_bounded(self, pair):
        policy_a, policy_b = pair
        for mode in (MERGE, ACQUIRE):
            report = compare(policy_a, policy_b, mode)
            assert 0.0 <= report.overall_weighted <= 100.0
            assert 0.0 <= report.overall_unweighted <= 100.0
            for row in report.paragraph_scores:
                assert 0.0 <= row.combined_score <= 100.0
