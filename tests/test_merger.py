"""Tests for building a unified policy prototype from two policies.

Each example pair is a row, asserted in full by ``_merged``: the name and
the whole rendered text of the merge-mode draft, every seam comment in its
place. The verdict gate, acquisition and the randomized properties follow
the rows.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings

from cpcompat.acceptance import evaluate, parse_rules
from cpcompat.comparison import compare
from cpcompat.merger import MergeRejectedError, merge
from cpcompat.model import ComparisonMode
from cpcompat.parser import parse_policy, render_policy

from conftest import SAMPLE_POLICY_TEXT, WORKED_POLICY_A_TEXT, WORKED_POLICY_B_TEXT, policy_from
from strategies import policies, policy_pairs
from test_docs import section

MERGE = ComparisonMode.MERGE
ACQUIRE = ComparisonMode.ACQUIRE


def merge_pair(a, b, mode=MERGE):
    """The draft of ``a`` and ``b``, accepted with no rules."""
    report = compare(a, b, mode)
    return merge(a, b, report, evaluate(report, []))


# The draft of every row.
DRAFTS = []


def _merged(a_text, b_text, draft):
    """A test that ``a_text`` as policy "A" and ``b_text`` as policy "B"
    merge to the policy "A+B" that renders to exactly ``draft``."""
    DRAFTS.append(draft)

    def test(self):
        merged = merge_pair(policy_from(a_text, "A"), policy_from(b_text, "B"))
        assert (merged.name, render_policy(merged)) == ("A+B", draft)

    return test


# The worked example's draft: A's options in A's order, each matched one
# with the stronger keyword, then B's unmatched d and e, each flagged.
WORKED_DRAFT = (
    "1 CERTIFICATE PROFILE\n// unmatched: from A: c\n// unmatched: from B: d\n// unmatched: from B: e\n"
    "a) MUST a\nb) MUST b\nc) MUST c\nd) RECOMMENDED d\ne) RECOMMENDED e\nConnection AND\n"
)


class TestOptionMerging:
    test_worked_example_union = _merged(WORKED_POLICY_A_TEXT, WORKED_POLICY_B_TEXT, WORKED_DRAFT)
    test_stricter_keyword_wins = _merged("1 T\na) RECOMMENDED x\n", "1 T\na) MUST x\n", "1 T\na) MUST x\n")
    test_tie_keeps_a_side_option = _merged(
        "1 T\na) OPTIONAL keep me\n", "1 T\na) OPTIONAL keep  me\n", "1 T\na) OPTIONAL keep me\n"
    )
    # No keyword reads as a hard requirement, so it beats OPTIONAL.
    test_missing_keyword_outranks_weaker_keyword = _merged("1 T\na) OPTIONAL x\n", "1 T\na) x\n", "1 T\na) x\n")
    test_matched_options_leave_no_annotations = _merged(
        "1 T\na) MUST x\n", "1 T\na) RECOMMENDED x\n", "1 T\na) MUST x\n"
    )


class TestStructureUnion:
    # Sections of one side are adopted in number order, each flagged.
    test_b_only_sections_are_adopted_in_order = _merged(
        "1 ALPHA\n1.1 A-ONE\n1.3 A-THREE\n2 BETA\n",
        "1 ALPHA\n1.2 B-TWO 5\n3 GAMMA\n",
        "1 ALPHA\n1.1 A-ONE\n// unmatched: from A\n1.2 B-TWO 5\n// unmatched: from B\n"
        "1.3 A-THREE\n// unmatched: from A\n2 BETA\n// unmatched: from A\n3 GAMMA\n// unmatched: from B\n",
    )
    # The flag marks the root of the adopted subtree only.
    test_adopted_sections_keep_their_weight_and_get_flagged = _merged(
        "1 ALPHA\n", "1 ALPHA\n2 BETA 5\n2.1 DETAIL\n", "1 ALPHA\n2 BETA 5\n// unmatched: from B\n2.1 DETAIL\n"
    )
    test_b_children_of_an_a_leaf_are_adopted = _merged(
        "1 ALPHA\n", "1 ALPHA\n1.1 B-ONE\n", "1 ALPHA\n1.1 B-ONE\n// unmatched: from B\n"
    )
    test_a_only_sections_get_flagged_too = _merged(
        "1 ALPHA\n2 BETA\n", "1 ALPHA\n", "1 ALPHA\n2 BETA\n// unmatched: from A\n"
    )
    test_shared_sections_take_a_side_weight = _merged("1 ALPHA 2\n", "1 ALPHA 7\n", "1 ALPHA 2\n")


class TestConflictAnnotations:
    test_title_conflict_keeps_a_and_notes_b = _merged(
        "1 NAMING\n", "1 IDENTIFICATION\n", '1 NAMING\n// merged: title in B was "IDENTIFICATION"\n'
    )
    test_equivalent_titles_are_not_flagged = _merged("1 KEY MANAGEMENT\n", "1 Key   Management\n", "1 KEY MANAGEMENT\n")
    test_connective_conflict_keeps_a_and_notes_b = _merged(
        "1 T\na) x\nConnection AND\n",
        "1 T\na) x\nConnection OR\n",
        "1 T\n// merged: connective in B was OR\na) x\nConnection AND\n",
    )
    test_undeclared_a_adopts_b_connective = _merged(
        "1 T\na) x\n", "1 T\na) x\nConnection OR\n", "1 T\na) x\nConnection OR\n"
    )
    test_b_comments_are_carried_over_once = _merged(
        "1 T\n// shared note\n// a note\n",
        "1 T\n// shared note\n// b note\n",
        "1 T\n// shared note\n// a note\n// b note\n",
    )
    test_comment_union_keeps_a_then_b_order_and_b_repeats = _merged(
        "1 T\n// shared\n// only a\n",
        "1 T\n// only b\n// shared\n// twice in b\n// twice in b\n",
        "1 T\n// shared\n// only a\n// only b\n// twice in b\n// twice in b\n",
    )
    # Every seam of one section at once, in README's order: A's comments,
    # B's that A lacks, then the connective, title and option flags.
    # Unkeyworded x ties MUST x, so A's option stands.
    test_seam_flags_follow_the_comments = _merged(
        "1 KEYS\n// shared\n// only a\na) MUST x\nb) MUST y\nConnection AND\n",
        "1 KEY ROTATION\n// only b\n// shared\na) x\nb) MUST z\nConnection OR\n",
        "1 KEYS\n// shared\n// only a\n// only b\n// merged: connective in B was OR\n"
        '// merged: title in B was "KEY ROTATION"\n// unmatched: from A: y\n// unmatched: from B: z\n'
        "a) MUST x\nb) MUST y\nc) MUST z\nConnection AND\n",
    )


def _seam_pattern(form: str) -> re.Pattern:
    """A documented seam form as a pattern: ``<a|b>`` is one of its words,
    any other ``<name>`` some text."""
    parts = re.split(r"<([^>]+)>", form)
    return re.compile("".join(
        re.escape(part) if index % 2 == 0 else f"(?:{part})" if "|" in part else ".+"
        for index, part in enumerate(parts)
    ))


def test_drafts_show_every_documented_seam_form():
    """Each seam comment of the rows' drafts has a form README's Merging
    section lists, and the rows show each listed form."""
    forms = re.findall(r"^- `(//[^`]+)`", section("README.md", "Merging"), re.MULTILINE)
    seams = {line for line in "".join(DRAFTS).splitlines() if line.startswith(("// merged:", "// unmatched:"))}
    shown = {form for form in forms for seam in seams if _seam_pattern(form).fullmatch(seam)}
    unlisted = {seam for seam in seams if not any(_seam_pattern(form).fullmatch(seam) for form in forms)}
    assert (len(forms), shown, unlisted) == (6, set(forms), set())


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


class TestMergedPolicyQuality:
    # The renderer leaves out a weight of 1.
    test_self_merge_is_identity = _merged(
        SAMPLE_POLICY_TEXT, SAMPLE_POLICY_TEXT, SAMPLE_POLICY_TEXT.replace(" 1\n", "\n")
    )
    # The worked pair the other way round: the draft's labels are written
    # afresh, so B's c) is e), and it reparses with its flags.
    test_merge_result_round_trips = _merged(
        WORKED_POLICY_B_TEXT,
        WORKED_POLICY_A_TEXT,
        "1 CERTIFICATE PROFILE\n// unmatched: from A: d\n// unmatched: from A: e\n// unmatched: from B: c\n"
        "a) MUST a\nb) MUST b\nc) RECOMMENDED d\nd) RECOMMENDED e\ne) MUST c\nConnection AND\n",
    )
    test_merge_is_idempotent = _merged(WORKED_DRAFT, WORKED_DRAFT, WORKED_DRAFT)

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
