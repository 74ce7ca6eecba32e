"""Tests for building a unified policy prototype from two policies."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from cpcompat.acceptance import evaluate, parse_rules
from cpcompat.comparison import compare
from cpcompat.merger import MergeRejectedError, merge
from cpcompat.model import ComparisonMode, Connective, Keyword
from cpcompat.parser import parse_policy, render_policy

from conftest import find, policy_from
from strategies import policies, policy_pairs

MERGE = ComparisonMode.MERGE
ACQUIRE = ComparisonMode.ACQUIRE


def merge_pair(a, b, mode=MERGE, rules_text=""):
    report = compare(a, b, mode)
    verdict = evaluate(report, parse_rules(rules_text))
    return merge(a, b, report, verdict)


class TestVerdictGate:
    def test_rejected_verdict_blocks_merge(self, worked_policy_a_text, worked_policy_b_text):
        a = policy_from(worked_policy_a_text, "A")
        b = policy_from(worked_policy_b_text, "B")
        report = compare(a, b, MERGE)
        verdict = evaluate(report, parse_rules("overall > 80\n"))
        assert not verdict.accepted
        with pytest.raises(MergeRejectedError):
            merge(a, b, report, verdict)


class TestAcquire:
    def test_acquirer_policy_is_kept_verbatim(self, worked_policy_a_text, worked_policy_b_text):
        a = policy_from(worked_policy_a_text, "A")
        b = policy_from(worked_policy_b_text, "B")
        merged = merge_pair(a, b, mode=ACQUIRE)
        assert merged is a


class TestOptionMerging:
    def test_worked_example_union(self, worked_policy_a_text, worked_policy_b_text):
        a = policy_from(worked_policy_a_text, "A")
        b = policy_from(worked_policy_b_text, "B")
        merged = merge_pair(a, b)
        assert merged.name == "A+B"
        paragraph = find(merged, "1")
        assert [(o.keyword, o.phrase) for o in paragraph.options] == [
            (Keyword.MUST, "a"),
            (Keyword.MUST, "b"),
            (Keyword.MUST, "c"),
            (Keyword.RECOMMENDED, "d"),
            (Keyword.RECOMMENDED, "e"),
        ]
        assert "// unmatched: from A: c" in paragraph.comments
        assert "// unmatched: from B: d" in paragraph.comments
        assert "// unmatched: from B: e" in paragraph.comments

    def test_stricter_keyword_wins(self):
        a = policy_from("1 T\na) RECOMMENDED x\n")
        b = policy_from("1 T\na) MUST x\n")
        merged = merge_pair(a, b)
        assert merged.roots[0].options[0].keyword is Keyword.MUST

    def test_tie_keeps_a_side_option(self):
        a = policy_from("1 T\na) OPTIONAL keep me\n")
        b = policy_from("1 T\na) OPTIONAL keep  me\n")
        merged = merge_pair(a, b)
        assert merged.roots[0].options[0].phrase == "keep me"

    def test_missing_keyword_outranks_weaker_keyword(self):
        # No keyword reads as a hard requirement, so it beats OPTIONAL.
        a = policy_from("1 T\na) OPTIONAL x\n")
        b = policy_from("1 T\na) x\n")
        merged = merge_pair(a, b)
        assert merged.roots[0].options[0].keyword is None

    def test_matched_options_leave_no_annotations(self):
        a = policy_from("1 T\na) MUST x\n")
        b = policy_from("1 T\na) RECOMMENDED x\n")
        merged = merge_pair(a, b)
        assert merged.roots[0].comments == ()


class TestStructureUnion:
    def test_b_only_sections_are_adopted_in_order(self):
        a = policy_from("1 ALPHA\n1.1 A-ONE\n1.3 A-THREE\n2 BETA\n", "A")
        b = policy_from("1 ALPHA\n1.2 B-TWO 5\n3 GAMMA\n", "B")
        merged = merge_pair(a, b)
        assert [p.path.dotted for p in merged.roots] == ["1", "2", "3"]
        first = merged.roots[0]
        assert [c.path.dotted for c in first.children] == ["1.1", "1.2", "1.3"]

    def test_adopted_sections_keep_their_weight_and_get_flagged(self):
        a = policy_from("1 ALPHA\n", "A")
        b = policy_from("1 ALPHA\n2 BETA 5\n2.1 DETAIL\n", "B")
        merged = merge_pair(a, b)
        adopted = find(merged, "2")
        assert adopted.weight == 5
        assert "// unmatched: from B" in adopted.comments
        # The flag marks the subtree root only.
        assert find(merged, "2.1").comments == ()

    def test_b_children_of_an_a_leaf_are_adopted(self):
        a = policy_from("1 ALPHA\n", "A")
        b = policy_from("1 ALPHA\n1.1 B-ONE\n", "B")
        merged = merge_pair(a, b)
        assert [c.path.dotted for c in merged.roots[0].children] == ["1.1"]
        assert "// unmatched: from B" in find(merged, "1.1").comments

    def test_a_only_sections_get_flagged_too(self):
        a = policy_from("1 ALPHA\n2 BETA\n", "A")
        b = policy_from("1 ALPHA\n", "B")
        merged = merge_pair(a, b)
        assert "// unmatched: from A" in find(merged, "2").comments

    def test_shared_sections_take_a_side_weight(self):
        a = policy_from("1 ALPHA 2\n", "A")
        b = policy_from("1 ALPHA 7\n", "B")
        merged = merge_pair(a, b)
        assert merged.roots[0].weight == 2


class TestConflictAnnotations:
    def test_title_conflict_keeps_a_and_notes_b(self):
        a = policy_from("1 NAMING\n", "A")
        b = policy_from("1 IDENTIFICATION\n", "B")
        merged = merge_pair(a, b)
        assert merged.roots[0].title == "NAMING"
        assert '// merged: title in B was "IDENTIFICATION"' in merged.roots[0].comments

    def test_equivalent_titles_are_not_flagged(self):
        a = policy_from("1 KEY MANAGEMENT\n", "A")
        b = policy_from("1 Key   Management\n", "B")
        merged = merge_pair(a, b)
        assert merged.roots[0].comments == ()

    def test_connective_conflict_keeps_a_and_notes_b(self):
        a = policy_from("1 T\na) x\nConnection AND\n", "A")
        b = policy_from("1 T\na) x\nConnection OR\n", "B")
        merged = merge_pair(a, b)
        assert merged.roots[0].connective is Connective.AND
        assert "// merged: connective in B was OR" in merged.roots[0].comments

    def test_undeclared_a_adopts_b_connective(self):
        a = policy_from("1 T\na) x\n", "A")
        b = policy_from("1 T\na) x\nConnection OR\n", "B")
        merged = merge_pair(a, b)
        assert merged.roots[0].connective is Connective.OR
        assert merged.roots[0].comments == ()

    def test_b_comments_are_carried_over_once(self):
        a = policy_from("1 T\n// shared note\n// a note\n", "A")
        b = policy_from("1 T\n// shared note\n// b note\n", "B")
        merged = merge_pair(a, b)
        assert merged.roots[0].comments == ("// shared note", "// a note", "// b note")

    def test_comment_union_keeps_a_then_b_order_and_b_repeats(self):
        a = policy_from("1 T\n// shared\n// only a\n", "A")
        b = policy_from("1 T\n// only b\n// shared\n// twice in b\n// twice in b\n", "B")
        merged = merge_pair(a, b)
        assert merged.roots[0].comments == (
            "// shared",
            "// only a",
            "// only b",
            "// twice in b",
            "// twice in b",
        )


class TestMergedPolicyQuality:
    def test_self_merge_is_identity(self, sample_policy_text):
        policy = policy_from(sample_policy_text, "sample")
        merged = merge_pair(policy, policy)
        assert merged.roots == policy.roots

    def test_merge_result_round_trips(self, worked_policy_a_text, worked_policy_b_text):
        a = policy_from(worked_policy_a_text, "A")
        b = policy_from(worked_policy_b_text, "B")
        merged = merge_pair(a, b)
        reparsed, diagnostics = parse_policy(render_policy(merged), name=merged.name)
        assert reparsed is not None, diagnostics
        assert merged.roots == reparsed.roots

    def test_merge_is_idempotent(self, worked_policy_a_text, worked_policy_b_text):
        a = policy_from(worked_policy_a_text, "A")
        b = policy_from(worked_policy_b_text, "B")
        merged = merge_pair(a, b)
        again = merge_pair(merged, merged)
        assert again.roots == merged.roots

    @settings(max_examples=100, deadline=None)
    @given(pair=policy_pairs())
    def test_random_merges_reparse_cleanly(self, pair):
        merged = merge_pair(*pair)
        reparsed, diagnostics = parse_policy(render_policy(merged), name=merged.name)
        assert reparsed is not None, [str(d) for d in diagnostics]
        assert merged.roots == reparsed.roots

    @settings(max_examples=100, deadline=None)
    @given(policy=policies())
    def test_random_self_merge_is_identity(self, policy):
        merged = merge_pair(policy, policy)
        assert merged.roots == policy.roots
