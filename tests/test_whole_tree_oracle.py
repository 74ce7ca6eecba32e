"""Whole policies against the recursive oracle: every report row, both
totals, the diagnostics and the merge draft. When every top-level row
weighs 1, the two totals are equal exactly.

The policies are drawn independently, so they differ in outline (B-only
subtrees under two-sided parents, empty sections, other titles), or share
one outline with redrawn options and connectives, so that options match
often and connectives conflict.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from cpcompat.acceptance import evaluate
from cpcompat.comparison import compare
from cpcompat.merger import merge
from cpcompat.model import ComparisonMode, Policy

from oracle import oracle_compare, oracle_draft
from strategies import policy_pairs, policy_pairs_same_outline

PAIRS = st.one_of(
    policy_pairs(),
    policy_pairs_same_outline(same_connective=False),
)

_FLAGS = ("// merged:", "// unmatched:")


def _close(got: tuple, expected: tuple) -> bool:
    """Equal, floats to within 1e-9."""
    return len(got) == len(expected) and all(
        g == e if not isinstance(e, float) else isinstance(g, float) and abs(g - e) <= 1e-9
        for g, e in zip(got, expected)
    )


def _draft(policy: Policy) -> dict:
    return {
        p.path.dotted: (
            p.title,
            p.connective,
            [(o.phrase, o.keyword) for o in p.options],
            Counter(c for c in p.comments if c.startswith(_FLAGS)),
        )
        for p in policy.walk()
    }


# Drawing the policies costs more than checking them, so each pair is
# checked in both modes.
@settings(max_examples=1000, deadline=None)
@given(pair=PAIRS)
def test_compare_and_merge_agree_with_the_oracle(pair):
    for mode in ComparisonMode:
        check_against_oracle(*pair, mode)


def check_against_oracle(policy_a: Policy, policy_b: Policy, mode: ComparisonMode) -> None:
    report = compare(policy_a, policy_b, mode)
    expected = oracle_compare(policy_a, policy_b, mode)

    rows = [
        (r.path.dotted, r.match_status.value, r.own_score, r.child_aggregate, r.combined_score, r.weight)
        for r in report.paragraph_scores
    ]
    assert [row[0] for row in rows] == [row[0] for row in expected["rows"]], mode
    for got, want in zip(rows, expected["rows"]):
        assert _close(got, want), (mode, got, want)
    assert _close(
        (report.overall_weighted, report.overall_unweighted),
        (expected["weighted"], expected["unweighted"]),
    ), mode
    if all(row.weight == 1 for row in report.paragraph_scores if len(row.path.segments) == 1):
        assert report.overall_weighted == report.overall_unweighted, mode
    diagnostics = [(d.code, d.path.dotted) for d in report.diagnostics]
    assert diagnostics == expected["diagnostics"], mode

    merged = merge(policy_a, policy_b, report, evaluate(report, []))
    if mode is ComparisonMode.ACQUIRE:
        assert merged is policy_a
    else:
        assert list(_draft(merged).items()) == list(oracle_draft(policy_a, policy_b).items())
