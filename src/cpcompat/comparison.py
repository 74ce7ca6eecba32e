"""Whole-policy comparison.

Paragraphs are aligned by section number. Every paragraph of policy A
produces one score row; paragraphs that exist only in policy B are
appended afterwards so the report covers both documents. A paragraph's
combined score is the :func:`~cpcompat.model.weighted_mean` of its own
option score (weight 1) and its subparagraphs' mean (weight N, their
count), with the count and weights taken from policy A: the comparing
party's structure governs. The overall figures are weighted means of the
top-level rows only; deeper paragraphs contribute through their parents.

:func:`compare` walks the aligned pairs once, backwards, and works out
each pair's path, status and connective once for its row and its
diagnostics. It walks backwards because a parent's combined score needs
its children's, which follow it in preorder; rows and diagnostics are
gathered last first and reversed once at the end, into pair order.

Lookups by section number, here and in ``ComparisonReport.find``, are
keyed by the path's segment tuple, which hashes and compares in C; the
``__hash__`` and ``__eq__`` that ``dataclass`` generates for
``NumberPath`` would be a Python call per section at every lookup.

:func:`report_to_json` writes the report in CLI.md's v1 layout directly,
one string per row and per diagnostic, with the bytes that
``json.dumps(..., indent=2, ensure_ascii=False)`` would give.
"""

from __future__ import annotations

from collections.abc import Iterable
from json.encoder import encode_basestring as _string

from .model import (
    ComparisonDiagnostic,
    ComparisonMode,
    ComparisonReport,
    MatchStatus,
    NumberPath,
    Paragraph,
    ParagraphScore,
    Policy,
    titles_differ,
    weighted_mean,
)
from .scoring import (
    resolve_connective,
    score_option_lists,
    score_paragraph_options,
)

__all__ = [
    "compare",
    "report_to_json",
]


def pair_by_path(
    paragraphs_a: Iterable[Paragraph],
    paragraphs_b: Iterable[Paragraph],
) -> list[tuple[Paragraph | None, Paragraph | None]]:
    """Pair paragraphs with the same section number: A's in A's order, then
    those only B has, in B's order. Compare and merge share this pairing."""
    by_path_b = {p.path.segments: p for p in paragraphs_b}
    pairs = [(a, by_path_b.pop(a.path.segments, None)) for a in paragraphs_a]
    pairs.extend((None, b) for b in by_path_b.values())
    return pairs


def compare(policy_a: Policy, policy_b: Policy, mode: ComparisonMode) -> ComparisonReport:
    """Compare two policies and report per-paragraph and overall scores.

    Rows and diagnostics follow :func:`pair_by_path`'s order over all
    paragraphs of both policies, in preorder.
    """
    # One backward walk builds rows and diagnostics alike: a paragraph's
    # children follow it in preorder, so each child's combined score is
    # ready for its parent. A pair's diagnostics go in last first too,
    # CONNECTIVE_ before TITLE_MISMATCH, so reversing both lists at the end
    # gives pair order with the title first.
    rows: list[ParagraphScore] = []
    diagnostics: list[ComparisonDiagnostic] = []
    combined: dict[tuple[int, ...], float] = {}
    for paragraph_a, paragraph_b in reversed(pair_by_path(policy_a.walk(), policy_b.walk())):
        path = (paragraph_a or paragraph_b).path
        if paragraph_a is None or paragraph_b is None:
            # One side is silent: the other side's options face an empty list.
            side = paragraph_a or paragraph_b
            options = (side.options, ()) if paragraph_b is None else ((), side.options)
            own = score_option_lists(*options, side.connective, mode)
            status = MatchStatus.MISSING_IN_A if paragraph_a is None else MatchStatus.MISSING_IN_B
            diagnostics.append(
                ComparisonDiagnostic(status._name_, path, f"section {path.dotted} has no counterpart")
            )
        else:
            own = score_paragraph_options(paragraph_a, paragraph_b, mode)
            empty = not (paragraph_a.options or paragraph_b.options)
            status = MatchStatus.BOTH_EMPTY if empty else MatchStatus.MATCHED
            _, conflict = resolve_connective(paragraph_a, paragraph_b)
            if conflict:
                diagnostics.append(
                    ComparisonDiagnostic(
                        "CONNECTIVE_MISMATCH",
                        path,
                        f"section {path.dotted} declares "
                        f"{paragraph_a.connective._name_} in one policy and "
                        f"{paragraph_b.connective._name_} in the other; "
                        f"the first policy's connective governs",
                    )
                )
            if titles_differ(paragraph_a.title, paragraph_b.title):
                diagnostics.append(
                    ComparisonDiagnostic(
                        "TITLE_MISMATCH",
                        path,
                        f"section {path.dotted} is titled {paragraph_a.title!r} "
                        f"in one policy and {paragraph_b.title!r} in the other",
                    )
                )
        # A B-only paragraph has no declared weight and no subparagraph
        # count from policy A to blend with; its row stands on its own.
        weight = 1 if paragraph_a is None else paragraph_a.weight
        children = () if paragraph_a is None else paragraph_a.children
        aggregate = None
        combined_score = own
        if children:
            aggregate = weighted_mean((combined[c.path.segments], c.weight) for c in children)
            # The children's aggregate carries one unit of weight per child,
            # the paragraph's own options one unit in all.
            combined_score = weighted_mean(((own, 1), (aggregate, len(children))))
        combined[path.segments] = combined_score
        rows.append(ParagraphScore(path, own, aggregate, combined_score, weight, status))
    return ComparisonReport(
        mode=mode,
        policy_a_name=policy_a.name,
        policy_b_name=policy_b.name,
        paragraph_scores=tuple(reversed(rows)),
        diagnostics=tuple(reversed(diagnostics)),
    )


def _number(value: float | None) -> str:
    # ParagraphScore admits only an int or a float in [0, 100], and json
    # writes either as its repr.
    return "null" if value is None else repr(value)


def _path(path: NumberPath | None) -> str:
    return "null" if path is None else f'"{path.dotted}"'


def _array(items: list[str]) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def report_to_json(report: ComparisonReport) -> str:
    """The report as JSON, report_version 1: two-space indent, one key per
    line, non-ASCII text written as itself. json's C encoder does not
    indent, so ``json.dumps`` would run this layout in pure Python.
    """
    # Section numbers (ASCII digits and dots) and enum values need no
    # escaping; the text fields take json's own escaper.
    rows = [
        f'    {{\n'
        f'      "path": "{row.path.dotted}",\n'
        f'      "own_score": {row.own_score!r},\n'
        f'      "child_aggregate": {_number(row.child_aggregate)},\n'
        f'      "combined_score": {row.combined_score!r},\n'
        f'      "weight": {row.weight!r},\n'
        f'      "match_status": "{row.match_status._value_}"\n'
        f'    }}'
        for row in report.paragraph_scores
    ]
    diagnostics = [
        f'    {{\n'
        f'      "code": {_string(diagnostic.code)},\n'
        f'      "path": {_path(diagnostic.path)},\n'
        f'      "message": {_string(diagnostic.message)}\n'
        f'    }}'
        for diagnostic in report.diagnostics
    ]
    return (
        f'{{\n'
        f'  "report_version": 1,\n'
        f'  "mode": "{report.mode._value_}",\n'
        f'  "policy_a_name": {_string(report.policy_a_name)},\n'
        f'  "policy_b_name": {_string(report.policy_b_name)},\n'
        f'  "overall_weighted": {report.overall_weighted!r},\n'
        f'  "overall_unweighted": {report.overall_unweighted!r},\n'
        f'  "paragraphs": {_array(rows)},\n'
        f'  "diagnostics": {_array(diagnostics)}\n'
        f'}}'
    )
