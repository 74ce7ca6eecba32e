"""Tests for whole-policy alignment, comparison, and report serialization."""

from __future__ import annotations

import builtins
import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpcompat.comparison import compare, report_to_json
from cpcompat.model import (
    ComparisonMode,
    ComparisonReport,
    MatchStatus,
    NumberPath,
    ParagraphScore,
)

from conftest import policy_from
from oracle import oracle_report_dict
from strategies import api_reports, modes, policies, policy_pairs, policy_pairs_same_outline

MERGE = ComparisonMode.MERGE
ACQUIRE = ComparisonMode.ACQUIRE


class TestWorkedExampleReport:
    def test_merge_score(self, worked_policy_a_text, worked_policy_b_text):
        a = policy_from(worked_policy_a_text, name="A")
        b = policy_from(worked_policy_b_text, name="B")
        report = compare(a, b, MERGE)
        assert report.overall_weighted == 32.5
        assert report.overall_unweighted == 32.5
        row = report.paragraph_scores[0]
        assert row.own_score == 32.5
        assert row.combined_score == 32.5
        assert row.child_aggregate is None
        assert row.match_status is MatchStatus.MATCHED

    def test_acquire_score(self, worked_policy_a_text, worked_policy_b_text):
        a = policy_from(worked_policy_a_text, name="A")
        b = policy_from(worked_policy_b_text, name="B")
        report = compare(a, b, ACQUIRE)
        assert abs(report.overall_weighted - 130.0 / 3.0) <= 1e-9

    def test_report_names_and_mode(self, worked_policy_a_text, worked_policy_b_text):
        a = policy_from(worked_policy_a_text, name="left")
        b = policy_from(worked_policy_b_text, name="right")
        report = compare(a, b, MERGE)
        assert report.policy_a_name == "left"
        assert report.policy_b_name == "right"
        assert report.mode is MERGE


class TestChildCombination:
    A_TEXT = "1 TOP\n1.1 ONE 1\na) MUST x\n1.2 TWO 3\na) MUST y\n"

    def test_parent_blends_own_and_children(self):
        # Child 1.1 matches fully (100), child 1.2 not at all (0).
        # Children aggregate to (100*1 + 0*3) / 4 = 25; the parent has no
        # options of its own (vacuous 100) and two children, so the
        # combined score is (100 + 25*2) / 3 = 50.
        b_text = "1 TOP\n1.1 ONE 1\na) MUST x\n1.2 TWO 3\na) MUST z\n"
        report = compare(policy_from(self.A_TEXT), policy_from(b_text), MERGE)
        top = report.find(NumberPath.parse("1"))
        assert top.own_score == 100.0
        assert top.child_aggregate == 25.0
        assert top.combined_score == pytest.approx(50.0, abs=1e-9)
        assert report.overall_weighted == pytest.approx(50.0, abs=1e-9)

    def test_extra_b_children_do_not_dilute(self):
        # A B-only child appears in the report but stays out of the
        # parent's aggregate, which is defined over A's subparagraphs.
        b_text = self.A_TEXT + "1.3 EXTRA 9\na) MUST z\n"
        report = compare(policy_from(self.A_TEXT), policy_from(b_text), MERGE)
        top = report.find(NumberPath.parse("1"))
        assert top.child_aggregate == 100.0
        assert top.combined_score == 100.0
        extra = report.find(NumberPath.parse("1.3"))
        assert extra.match_status is MatchStatus.MISSING_IN_A
        assert extra.combined_score == 0.0
        assert extra.weight == 1

    def test_leaf_rows_have_no_aggregate(self):
        report = compare(policy_from(self.A_TEXT), policy_from(self.A_TEXT), MERGE)
        leaf = report.find(NumberPath.parse("1.1"))
        assert leaf.child_aggregate is None
        assert leaf.own_score == leaf.combined_score == 100.0


class TestMissingParagraphs:
    def test_missing_in_b_scores_zero_under_merge(self):
        a = policy_from("1 TOP\na) MUST x\n2 NEXT\na) MUST y\n")
        b = policy_from("1 TOP\na) MUST x\n")
        report = compare(a, b, MERGE)
        row = report.find(NumberPath.parse("2"))
        assert row.match_status is MatchStatus.MISSING_IN_B
        assert row.combined_score == 0.0
        assert report.overall_unweighted == 50.0

    def test_missing_in_b_is_superseded_under_acquire(self):
        a = policy_from("1 TOP\na) MUST x\n2 NEXT\na) MUST y\n")
        b = policy_from("1 TOP\na) MUST x\n")
        report = compare(a, b, ACQUIRE)
        assert report.find(NumberPath.parse("2")).combined_score == 100.0
        assert report.overall_unweighted == 100.0

    def test_optionless_paragraph_missing_in_b(self):
        a = policy_from("1 TOP\na) MUST x\n2 NEXT\n")
        b = policy_from("1 TOP\na) MUST x\n")
        report = compare(a, b, MERGE)
        row = report.find(NumberPath.parse("2"))
        # Nothing was required, so nothing is incompatible.
        assert row.combined_score == 100.0
        assert row.match_status is MatchStatus.MISSING_IN_B

    def test_missing_subtree_rows_are_reported(self):
        a = policy_from("1 TOP\n1.1 SUB\na) MUST x\n")
        b = policy_from("1 TOP\n")
        report = compare(a, b, MERGE)
        assert report.find(NumberPath.parse("1.1")).match_status is MatchStatus.MISSING_IN_B
        codes = [d.code for d in report.diagnostics]
        assert codes.count("MISSING_IN_B") == 1

    def test_b_only_rows_follow_a_rows(self):
        a = policy_from("2 ONLY A\na) MUST x\n")
        b = policy_from("1 ONLY B\na) MUST y\n3 ALSO B\n")
        report = compare(a, b, MERGE)
        assert [s.path.dotted for s in report.paragraph_scores] == ["2", "1", "3"]
        assert [s.match_status for s in report.paragraph_scores] == [
            MatchStatus.MISSING_IN_B,
            MatchStatus.MISSING_IN_A,
            MatchStatus.MISSING_IN_A,
        ]

    def test_both_empty_status(self):
        a = policy_from("1 TOP\n")
        b = policy_from("1 TOP\n")
        report = compare(a, b, MERGE)
        row = report.find(NumberPath.parse("1"))
        assert row.match_status is MatchStatus.BOTH_EMPTY
        assert row.combined_score == 100.0


class TestOverallScores:
    def test_weighted_and_unweighted_differ(self):
        a = policy_from("1 GOOD 3\na) MUST x\n2 BAD 1\na) MUST y\n")
        b = policy_from("1 GOOD 3\na) MUST x\n2 BAD 1\na) MUST z\n")
        report = compare(a, b, MERGE)
        assert report.overall_weighted == pytest.approx(75.0, abs=1e-9)
        assert report.overall_unweighted == pytest.approx(50.0, abs=1e-9)

    def test_only_top_level_rows_enter_overall(self):
        # The deep mismatch influences the overall only through its
        # parent's combined score.
        a = policy_from("1 TOP\n1.1 SUB\na) MUST x\n")
        b = policy_from("1 TOP\n1.1 SUB\na) MUST y\n")
        report = compare(a, b, MERGE)
        assert [len(row.path.segments) for row in report.paragraph_scores] == [1, 2]
        # own 100 vacuous, child aggregate 0: combined (100 + 0) / 2.
        assert report.overall_weighted == pytest.approx(50.0, abs=1e-9)

    def test_empty_policies_are_fully_compatible(self):
        report = compare(policy_from(""), policy_from(""), MERGE)
        assert report.overall_weighted == 100.0
        assert report.overall_unweighted == 100.0
        assert report.paragraph_scores == ()

    def test_empty_a_nonempty_b_merge(self):
        report = compare(policy_from(""), policy_from("1 TOP\na) MUST x\n"), MERGE)
        assert report.overall_weighted == 0.0

    def test_empty_a_nonempty_b_acquire(self):
        report = compare(policy_from(""), policy_from("1 TOP\na) MUST x\n"), ACQUIRE)
        assert report.overall_weighted == 100.0


class TestDiagnostics:
    def test_title_mismatch(self):
        a = policy_from("1 OVERVIEW\n")
        b = policy_from("1 SUMMARY\n")
        report = compare(a, b, MERGE)
        assert [d.code for d in report.diagnostics] == ["TITLE_MISMATCH"]
        assert report.diagnostics[0].path == NumberPath.parse("1")

    def test_title_comparison_ignores_case_and_spacing(self):
        a = policy_from("1 KEY   MANAGEMENT\n")
        b = policy_from("1 Key Management\n")
        report = compare(a, b, MERGE)
        assert report.diagnostics == ()

    def test_connective_mismatch_uses_a_side(self):
        a = policy_from("1 T\na) MUST x\nb) MUST y\nConnection AND\n")
        b = policy_from("1 T\na) MUST x\nb) MUST y\nConnection OR\n")
        report = compare(a, b, MERGE)
        assert [d.code for d in report.diagnostics] == ["CONNECTIVE_MISMATCH"]
        # A's AND governs: both options match fully, so 100 either way;
        # make the asymmetry visible with a partial match instead.
        a2 = policy_from("1 T\na) MUST x\nb) MUST y\nConnection AND\n")
        b2 = policy_from("1 T\na) MUST x\nConnection OR\n")
        report2 = compare(a2, b2, MERGE)
        assert report2.find(NumberPath.parse("1")).own_score == 50.0

    def test_undeclared_side_adopts_declared_connective(self):
        a = policy_from("1 T\na) MUST x\nb) MUST y\n")
        b = policy_from("1 T\na) MUST x\nConnection OR\n")
        report = compare(a, b, MERGE)
        assert report.diagnostics == ()
        assert report.find(NumberPath.parse("1")).own_score == 100.0

    def test_pair_order_with_title_before_connective(self):
        a = policy_from("1 OVERVIEW\na) MUST x\nConnection AND\n2 SCOPE\n")
        b = policy_from("1 SUMMARY\na) MUST x\nConnection OR\n2 RANGE\n")
        report = compare(a, b, MERGE)
        assert [(d.code, d.path.dotted) for d in report.diagnostics] == [
            ("TITLE_MISMATCH", "1"),
            ("CONNECTIVE_MISMATCH", "1"),
            ("TITLE_MISMATCH", "2"),
        ]

    def test_missing_diagnostics_name_paths(self):
        a = policy_from("1 A\na) MUST x\n")
        b = policy_from("2 B\na) MUST x\n")
        report = compare(a, b, MERGE)
        codes = {(d.code, d.path.dotted) for d in report.diagnostics}
        assert codes == {("MISSING_IN_B", "1"), ("MISSING_IN_A", "2")}


class TestReportSerialization:
    def test_dict_shape(self, worked_policy_a_text, worked_policy_b_text):
        a = policy_from(worked_policy_a_text, name="A")
        b = policy_from(worked_policy_b_text, name="B")
        data = json.loads(report_to_json(compare(a, b, MERGE)))
        assert list(data) == [
            "report_version",
            "mode",
            "policy_a_name",
            "policy_b_name",
            "overall_weighted",
            "overall_unweighted",
            "paragraphs",
            "diagnostics",
        ]
        assert data["report_version"] == 1
        assert data["mode"] == "merge"
        assert data["overall_weighted"] == 32.5
        paragraph = data["paragraphs"][0]
        assert paragraph == {
            "path": "1",
            "own_score": 32.5,
            "child_aggregate": None,
            "combined_score": 32.5,
            "weight": 1,
            "match_status": "matched",
        }
        assert data["diagnostics"] == []

    def test_json_round_trip(self, worked_policy_a_text, worked_policy_b_text):
        a = policy_from(worked_policy_a_text, name="A")
        b = policy_from(worked_policy_b_text, name="B")
        report = compare(a, b, ACQUIRE)
        data = json.loads(report_to_json(report))
        assert data == oracle_report_dict(report)
        assert data["mode"] == "acquire"

    def test_diagnostics_serialize_with_paths(self):
        a = policy_from("1 A\na) MUST x\n")
        b = policy_from("2 B\n")
        data = json.loads(report_to_json(compare(a, b, MERGE)))
        assert {"code": "MISSING_IN_B", "path": "1", "message": data["diagnostics"][0]["message"]} == data["diagnostics"][0]

    @settings(max_examples=1000, deadline=None)
    @given(
        report=st.one_of(
            st.builds(compare, policies(), policies(), modes()),
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
        assert [f.name for f in dataclasses.fields(ComparisonReport)] == declared
        assert list(dataclasses.asdict(report)) == declared
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
