"""Independent references for scoring, the JSON report and the merge draft.

``oracle_score`` is a deliberately naive transcription of the scoring
rules with explicit nested loops.  ``oracle_compare`` scores two whole
policies by recursion over the trees, as README's "How scoring works"
states the rules, and ``oracle_draft`` states what README's "Merging"
section promises of a merge-mode draft.  They only use the domain types,
never the scoring, comparison or merger modules, so the test suite can
check the production implementation against them case by case.
``oracle_report_dict`` states the JSON report's layout as plain data for
``json.dumps``, which the report writer must match byte for byte.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from cpcompat.model import (
    ComparisonMode,
    ComparisonReport,
    Connective,
    Paragraph,
    Policy,
    PolicyOption,
)


def _strength(option: PolicyOption) -> float:
    if option.keyword is None:
        return 1.0
    return option.keyword.value


def _normalized(option: PolicyOption) -> str:
    return " ".join(option.phrase.split()).lower()


def oracle_matches(
    options_a: Sequence[PolicyOption],
    options_b: Sequence[PolicyOption],
) -> list[tuple[int, int, float]]:
    """Pair options by exhaustive search, as (index_a, index_b, factor).

    Each A option, in order, takes the first not-yet-used B option whose
    normalized phrase is equal.
    """
    used_b = [False] * len(options_b)
    triples: list[tuple[int, int, float]] = []
    for j in range(len(options_a)):
        for k in range(len(options_b)):
            if used_b[k]:
                continue
            if _normalized(options_a[j]) == _normalized(options_b[k]):
                factor = 1.0 - abs(_strength(options_a[j]) - _strength(options_b[k]))
                triples.append((j, k, factor))
                used_b[k] = True
                break
    return triples


def oracle_score(
    options_a: Sequence[PolicyOption],
    options_b: Sequence[PolicyOption],
    connective: Connective,
    mode: ComparisonMode,
) -> float:
    """Score one paragraph pair by exhaustive pairing.

    Pairs the options with ``oracle_matches``, then applies the OR rule
    (maximum term) or the AND rule (term sum over the mode's denominator).
    """
    count_a = len(options_a)
    count_b = len(options_b)

    if count_a == 0 and count_b == 0:
        return 100.0
    if count_a == 0 or count_b == 0:
        if mode is ComparisonMode.ACQUIRE:
            return 100.0
        return 0.0

    terms = [100.0 * factor for _, _, factor in oracle_matches(options_a, options_b)]

    effective = Connective.AND if connective is Connective.NONE else connective
    if effective is Connective.OR:
        best = 0.0
        for term in terms:
            if term > best:
                best = term
        return best

    total = 0.0
    for term in terms:
        total += term
    if mode is ComparisonMode.MERGE:
        return total / max(count_a, count_b)
    return total / count_a


def _preorder(paragraphs: Sequence[Paragraph]) -> list[Paragraph]:
    out: list[Paragraph] = []
    for paragraph in paragraphs:
        out.append(paragraph)
        out.extend(_preorder(paragraph.children))
    return out


def _titles_differ(a: Paragraph, b: Paragraph) -> bool:
    return " ".join(a.title.split()).lower() != " ".join(b.title.split()).lower()


def _connectives_conflict(a: Paragraph, b: Paragraph) -> bool:
    declared = a.connective is not Connective.NONE and b.connective is not Connective.NONE
    return declared and a.connective is not b.connective


def oracle_compare(policy_a: Policy, policy_b: Policy, mode: ComparisonMode) -> dict:
    """Score two whole policies by recursion.

    Returns ``rows`` as (dotted path, status, own, aggregate, combined,
    weight): A's sections in preorder, then the sections only B has in B's
    preorder. ``weighted`` and ``unweighted`` are the totals over the
    top-level rows, and ``diagnostics`` the (code, dotted path) pairs in
    row order.
    """
    sections_a = _preorder(policy_a.roots)
    sections_b = _preorder(policy_b.roots)
    b_at = {b.path.dotted: b for b in sections_b}
    a_paths = {a.path.dotted for a in sections_a}

    def own(a: Paragraph | None, b: Paragraph | None) -> float:
        if b is None:
            return oracle_score(a.options, (), a.connective, mode)
        if a is None:
            return oracle_score((), b.options, b.connective, mode)
        connective = b.connective if a.connective is Connective.NONE else a.connective
        return oracle_score(a.options, b.options, connective, mode)

    def scores(a: Paragraph) -> tuple[float, float | None, float]:
        """(own, aggregate, combined) of a section of A; the children and
        their weights are A's."""
        own_score = own(a, b_at.get(a.path.dotted))
        if not a.children:
            return own_score, None, own_score
        total = 0.0
        weights = 0
        for child in a.children:
            total += scores(child)[2] * child.weight
            weights += child.weight
        aggregate = total / weights
        n = len(a.children)
        return own_score, aggregate, (own_score + aggregate * n) / (1 + n)

    rows = []
    diagnostics = []
    for a in sections_a:
        dotted = a.path.dotted
        b = b_at.get(dotted)
        if b is None:
            status = "missing_in_b"
            diagnostics.append(("MISSING_IN_B", dotted))
        else:
            status = "matched" if a.options or b.options else "both_empty"
            if _titles_differ(a, b):
                diagnostics.append(("TITLE_MISMATCH", dotted))
            if _connectives_conflict(a, b):
                diagnostics.append(("CONNECTIVE_MISMATCH", dotted))
        rows.append((dotted, status, *scores(a), a.weight))
    for b in sections_b:
        dotted = b.path.dotted
        if dotted not in a_paths:
            score = own(None, b)
            rows.append((dotted, "missing_in_a", score, None, score, 1))
            diagnostics.append(("MISSING_IN_A", dotted))

    top = [row for row in rows if "." not in row[0]]
    if top:
        weighted = sum(row[4] * row[5] for row in top) / sum(row[5] for row in top)
        unweighted = sum(row[4] for row in top) / len(top)
    else:
        weighted = unweighted = 100.0
    return {
        "rows": rows,
        "weighted": weighted,
        "unweighted": unweighted,
        "diagnostics": diagnostics,
    }


def oracle_draft(policy_a: Policy, policy_b: Policy) -> dict:
    """The merge-mode draft, section by section in the draft's preorder.

    Maps each dotted path to (title, connective, options as (phrase,
    keyword), multiset of ``// merged:`` and ``// unmatched:`` flags).
    Sections pair by number and are written in number order. A matched
    option pair keeps the option with the stronger keyword, A's on a tie;
    options of one side follow, flagged. A section of one side is adopted
    whole, with a flag on its root. Title and connective conflicts keep
    A's choice and flag B's.
    """
    draft: dict = {}

    def adopt(paragraph: Paragraph, side: str, root: bool) -> None:
        flags = Counter([f"// unmatched: from {side}"] if root else [])
        options = [(o.phrase, o.keyword) for o in paragraph.options]
        draft[paragraph.path.dotted] = (paragraph.title, paragraph.connective, options, flags)
        for child in paragraph.children:
            adopt(child, side, False)

    def join(a: Paragraph, b: Paragraph) -> None:
        flags: Counter = Counter()
        partner = {j: k for j, k, _ in oracle_matches(a.options, b.options)}
        options = []
        for j, option_a in enumerate(a.options):
            if j in partner:
                option_b = b.options[partner[j]]
                kept = option_b if _strength(option_b) > _strength(option_a) else option_a
                options.append((kept.phrase, kept.keyword))
            else:
                options.append((option_a.phrase, option_a.keyword))
                flags[f"// unmatched: from A: {option_a.phrase}"] += 1
        for k, option_b in enumerate(b.options):
            if k not in partner.values():
                options.append((option_b.phrase, option_b.keyword))
                flags[f"// unmatched: from B: {option_b.phrase}"] += 1
        if _titles_differ(a, b):
            flags[f'// merged: title in B was "{b.title}"'] += 1
        connective = a.connective
        if _connectives_conflict(a, b):
            flags[f"// merged: connective in B was {b.connective.name}"] += 1
        elif connective is Connective.NONE:
            connective = b.connective
        draft[a.path.dotted] = (a.title, connective, options, flags)
        level(a.children, b.children)

    def level(children_a: Sequence[Paragraph], children_b: Sequence[Paragraph]) -> None:
        by_a = {child.path.segments[-1]: child for child in children_a}
        by_b = {child.path.segments[-1]: child for child in children_b}
        for segment in sorted(by_a.keys() | by_b.keys()):
            a, b = by_a.get(segment), by_b.get(segment)
            if a is not None and b is not None:
                join(a, b)
            elif a is not None:
                adopt(a, "A", True)
            else:
                adopt(b, "B", True)

    level(policy_a.roots, policy_b.roots)
    return draft


def oracle_report_dict(report: ComparisonReport) -> dict:
    """The report as plain data with the v1 layout; ``json.dumps`` of it with
    ``indent=2, ensure_ascii=False`` is the reference report text."""
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
