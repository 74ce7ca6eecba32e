"""Whole-policy comparison.

Paragraphs are aligned by section number. Every paragraph of policy A
produces one score row; paragraphs that exist only in policy B are
appended afterwards so the report covers both documents. A paragraph's
combined score blends its own option score with the weighted mean of its
subparagraphs' combined scores, where the subparagraph count and weights
are taken from policy A: the comparing party's structure governs.

The two overall figures aggregate the top-level rows only; deeper
paragraphs already contribute through their parents.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator

from .model import (
    ComparisonDiagnostic,
    ComparisonMode,
    ComparisonReport,
    MatchStatus,
    NumberPath,
    Paragraph,
    ParagraphScore,
    Policy,
    normalize_phrase,
)
from .scoring import (
    child_aggregate,
    combine_with_children,
    resolve_connective,
    score_option_lists,
    score_paragraph_options,
)

__all__ = [
    "align",
    "compare",
    "report_to_dict",
    "report_to_json",
]


def pair_by_path(
    paragraphs_a: Iterable[Paragraph],
    paragraphs_b: Iterable[Paragraph],
) -> list[tuple[Paragraph | None, Paragraph | None]]:
    """Pair paragraphs with the same section number: A's in A's order, then
    those only B has, in B's order. Compare and merge share this pairing."""
    by_path_b = {p.path: p for p in paragraphs_b}
    pairs = [(a, by_path_b.pop(a.path, None)) for a in paragraphs_a]
    pairs.extend((None, b) for b in by_path_b.values())
    return pairs


def align(
    policy_a: Policy,
    policy_b: Policy,
) -> list[tuple[Paragraph | None, Paragraph | None]]:
    """:func:`pair_by_path` over all paragraphs of both policies, preorder."""
    return pair_by_path(policy_a.walk(), policy_b.walk())


def _row_status(paragraph_a: Paragraph | None, paragraph_b: Paragraph | None) -> MatchStatus:
    if paragraph_a is None:
        return MatchStatus.MISSING_IN_A
    if paragraph_b is None:
        return MatchStatus.MISSING_IN_B
    if not paragraph_a.options and not paragraph_b.options:
        return MatchStatus.BOTH_EMPTY
    return MatchStatus.MATCHED


def _missing(code: str, paragraph: Paragraph) -> ComparisonDiagnostic:
    path = paragraph.path
    return ComparisonDiagnostic(code, path, f"section {path.dotted} has no counterpart")


def _pairing_diagnostics(
    paragraph_a: Paragraph,
    paragraph_b: Paragraph,
) -> Iterator[ComparisonDiagnostic]:
    path = paragraph_a.path
    if normalize_phrase(paragraph_a.title) != normalize_phrase(paragraph_b.title):
        yield ComparisonDiagnostic(
            "TITLE_MISMATCH",
            path,
            f"section {path.dotted} is titled "
            f"{paragraph_a.title!r} in one policy and {paragraph_b.title!r} in the other",
        )
    _, conflict = resolve_connective(paragraph_a, paragraph_b)
    if conflict:
        yield ComparisonDiagnostic(
            "CONNECTIVE_MISMATCH",
            path,
            f"section {path.dotted} declares "
            f"{paragraph_a.connective.name} in one policy and "
            f"{paragraph_b.connective.name} in the other; "
            f"the first policy's connective governs",
        )


def compare(policy_a: Policy, policy_b: Policy, mode: ComparisonMode) -> ComparisonReport:
    """Compare two policies and report per-paragraph and overall scores.

    Rows and diagnostics follow :func:`align`'s pair order.
    """
    pairs = align(policy_a, policy_b)
    diagnostics: list[ComparisonDiagnostic] = []
    own_scores: list[float] = []
    for paragraph_a, paragraph_b in pairs:
        if paragraph_a is None:
            diagnostics.append(_missing("MISSING_IN_A", paragraph_b))
            own = score_option_lists((), paragraph_b.options, paragraph_b.connective, mode)
        elif paragraph_b is None:
            diagnostics.append(_missing("MISSING_IN_B", paragraph_a))
            own = score_option_lists(paragraph_a.options, (), paragraph_a.connective, mode)
        else:
            diagnostics.extend(_pairing_diagnostics(paragraph_a, paragraph_b))
            own = score_paragraph_options(paragraph_a, paragraph_b, mode)
        own_scores.append(own)

    # A paragraph's children come after it in preorder, so walking the pairs
    # backwards has every child's combined score ready for its parent.
    rows: list[ParagraphScore] = []
    combined: dict[NumberPath, float] = {}
    for (paragraph_a, paragraph_b), own in zip(reversed(pairs), reversed(own_scores)):
        combined_score = own
        aggregate: float | None = None
        if paragraph_a is None:
            # Policy A has no such paragraph, hence no subparagraph count to
            # blend with and no declared weight; the row stands on its own.
            path, weight = paragraph_b.path, 1
        else:
            path, weight = paragraph_a.path, paragraph_a.weight
            children = paragraph_a.children
            if children:
                aggregate = child_aggregate((combined[c.path], c.weight) for c in children)
                combined_score = combine_with_children(own, aggregate, len(children))
        combined[path] = combined_score
        rows.append(
            ParagraphScore(
                path=path,
                own_score=own,
                child_aggregate=aggregate,
                combined_score=combined_score,
                weight=weight,
                match_status=_row_status(paragraph_a, paragraph_b),
            )
        )
    rows.reverse()

    return ComparisonReport(
        mode=mode,
        policy_a_name=policy_a.name,
        policy_b_name=policy_b.name,
        paragraph_scores=tuple(rows),
        diagnostics=tuple(diagnostics),
    )


def report_to_dict(report: ComparisonReport) -> dict:
    """Serialize a report to plain data with a stable layout."""
    return {
        "report_version": 1,
        "mode": report.mode.value,
        "policy_a_name": report.policy_a_name,
        "policy_b_name": report.policy_b_name,
        "overall_weighted": report.overall_weighted,
        "overall_unweighted": report.overall_unweighted,
        "paragraphs": [
            {
                "path": row.path.dotted,
                "own_score": row.own_score,
                "child_aggregate": row.child_aggregate,
                "combined_score": row.combined_score,
                "weight": row.weight,
                "match_status": row.match_status.value,
            }
            for row in report.paragraph_scores
        ],
        "diagnostics": [
            {
                "code": diagnostic.code,
                "path": diagnostic.path.dotted if diagnostic.path is not None else None,
                "message": diagnostic.message,
            }
            for diagnostic in report.diagnostics
        ],
    }


def report_to_json(report: ComparisonReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, ensure_ascii=False)
