"""Whole-policy comparison.

Paragraphs are aligned by section number. Every paragraph of policy A
produces one score row; paragraphs that exist only in policy B are
appended afterwards so the report covers both documents. A paragraph's
combined score is the :func:`~cpcompat.model.weighted_mean` of its own
option score (weight 1) and its subparagraphs' mean (weight N, their
count), with the count and weights taken from policy A: the comparing
party's structure governs. The overall figures are weighted means of the
top-level rows only; deeper paragraphs contribute through their parents.

:func:`report_to_json` writes the report in CLI.md's v1 layout directly,
one string per row and per diagnostic, with the bytes that
``json.dumps(..., indent=2, ensure_ascii=False)`` would give.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
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
    normalize_phrase,
    weighted_mean,
)
from .scoring import (
    resolve_connective,
    score_option_lists,
    score_paragraph_options,
)

__all__ = [
    "align",
    "compare",
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


def _pairing_diagnostics(
    paragraph_a: Paragraph | None,
    paragraph_b: Paragraph | None,
) -> Iterator[ComparisonDiagnostic]:
    """MISSING_IN_A/B for a one-sided pair, else TITLE_ and CONNECTIVE_MISMATCH."""
    if paragraph_a is None or paragraph_b is None:
        code = "MISSING_IN_A" if paragraph_a is None else "MISSING_IN_B"
        path = (paragraph_a or paragraph_b).path
        yield ComparisonDiagnostic(code, path, f"section {path.dotted} has no counterpart")
        return
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
    diagnostics = [d for a, b in pairs for d in _pairing_diagnostics(a, b)]

    # A paragraph's children come after it in preorder, so walking the pairs
    # backwards has every child's combined score ready for its parent.
    rows: list[ParagraphScore] = []
    combined: dict[NumberPath, float] = {}
    for paragraph_a, paragraph_b in reversed(pairs):
        if paragraph_a is None or paragraph_b is None:
            # One side is silent: the other side's options face an empty list.
            side = paragraph_a or paragraph_b
            options = (side.options, ()) if paragraph_b is None else ((), side.options)
            own = score_option_lists(*options, side.connective, mode)
        else:
            own = score_paragraph_options(paragraph_a, paragraph_b, mode)
        # A B-only paragraph has no declared weight and no subparagraph
        # count from policy A to blend with; its row stands on its own.
        path = (paragraph_a or paragraph_b).path
        weight = 1 if paragraph_a is None else paragraph_a.weight
        children = () if paragraph_a is None else paragraph_a.children
        aggregate = None
        combined_score = own
        if children:
            aggregate = weighted_mean((combined[c.path], c.weight) for c in children)
            # The children's aggregate carries one unit of weight per child,
            # the paragraph's own options one unit in all.
            combined_score = weighted_mean(((own, 1), (aggregate, len(children))))
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
        f'      "match_status": "{row.match_status.value}"\n'
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
        f'  "mode": "{report.mode.value}",\n'
        f'  "policy_a_name": {_string(report.policy_a_name)},\n'
        f'  "policy_b_name": {_string(report.policy_b_name)},\n'
        f'  "overall_weighted": {report.overall_weighted!r},\n'
        f'  "overall_unweighted": {report.overall_unweighted!r},\n'
        f'  "paragraphs": {_array(rows)},\n'
        f'  "diagnostics": {_array(diagnostics)}\n'
        f'}}'
    )
