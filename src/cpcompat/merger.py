"""Build a unified policy prototype from two compared policies.

The merge is gated by an acceptance verdict: callers compare the two
policies, evaluate their rules, and only an accepted verdict unlocks the
merge. Under acquisition the acquirer's policy stands as-is. Under a
merger of equals the result is a union of both documents with the first
policy winning ties. Sections are paired with the comparison's own
alignment (``comparison.pair_by_path``, one level of children at a
time), so the draft has exactly the sections the report has rows for.
Seams where the two sides disagreed are annotated with ``//`` comments
so a human editor can review each one:

* matched options keep the stricter requirement keyword;
* options present on one side only stay in the list and are flagged;
* sections present on one side only are adopted whole and flagged;
* title and connective conflicts keep policy A's choice and note B's.

The output is a normal policy tree, so it can be rendered, reparsed, and
compared like any hand-written document.
"""

from __future__ import annotations

from operator import attrgetter

from .acceptance import Verdict
from .comparison import pair_by_path
from .model import (
    ComparisonMode,
    ComparisonReport,
    Paragraph,
    Policy,
    PolicyOption,
    option_keyword_value,
    titles_differ,
)
from .scoring import match_options, resolve_connective

__all__ = ["MergeRejectedError", "merge"]

_BY_PATH = attrgetter("path.segments")


class MergeRejectedError(RuntimeError):
    """Raised when a merge is attempted with a rejected verdict."""


def _merge_options(
    paragraph_a: Paragraph,
    paragraph_b: Paragraph,
) -> tuple[tuple[PolicyOption, ...], list[str]]:
    """Union of two option lists plus review annotations."""
    options_a = paragraph_a.options
    options_b = paragraph_b.options
    matches = dict(match_options(options_a, options_b))
    matched_b = set(matches.values())

    merged: list[PolicyOption] = []
    annotations: list[str] = []
    for index_a, option_a in enumerate(options_a):
        index_b = matches.get(index_a)
        if index_b is None:
            merged.append(option_a)
            annotations.append(f"// unmatched: from A: {option_a.phrase}")
            continue
        option_b = options_b[index_b]
        if option_keyword_value(option_b) > option_keyword_value(option_a):
            merged.append(option_b)
        else:
            merged.append(option_a)
    for index_b, option_b in enumerate(options_b):
        if index_b not in matched_b:
            merged.append(option_b)
            annotations.append(f"// unmatched: from B: {option_b.phrase}")
    return tuple(merged), annotations


def _merge_children(
    children_a: tuple[Paragraph, ...],
    children_b: tuple[Paragraph, ...],
) -> tuple[Paragraph, ...]:
    if not children_a and not children_b:
        return ()
    merged: list[Paragraph] = []
    for child_a, child_b in pair_by_path(children_a, children_b):
        if child_a is not None and child_b is not None:
            merged.append(_merge_paragraphs(child_a, child_b))
        else:
            # A one-sided subtree is taken over whole, its root flagged for review.
            side, child = ("A", child_a) if child_b is None else ("B", child_b)
            comments = child.comments + (f"// unmatched: from {side}",)
            merged.append(Paragraph(child.path, child.title, child.weight, child.options,
                                    child.connective, comments, child.children))
    merged.sort(key=_BY_PATH)
    return tuple(merged)


def _merge_paragraphs(paragraph_a: Paragraph, paragraph_b: Paragraph) -> Paragraph:
    options, annotations = _merge_options(paragraph_a, paragraph_b)

    if titles_differ(paragraph_a.title, paragraph_b.title):
        annotations.insert(0, f'// merged: title in B was "{paragraph_b.title}"')

    connective, conflict = resolve_connective(paragraph_a, paragraph_b)
    if conflict:
        annotations.insert(0, f"// merged: connective in B was {paragraph_b.connective._name_}")

    comments = list(paragraph_a.comments)
    if paragraph_b.comments:
        # A set, so the union is linear in the comment counts; B keeps its
        # order and its own repeats.
        comments_a = set(comments)
        comments.extend(c for c in paragraph_b.comments if c not in comments_a)
    comments.extend(annotations)

    return Paragraph(
        paragraph_a.path,
        paragraph_a.title,
        paragraph_a.weight,
        options,
        connective,
        tuple(comments),
        _merge_children(paragraph_a.children, paragraph_b.children),
    )


def merge(
    policy_a: Policy,
    policy_b: Policy,
    report: ComparisonReport,
    verdict: Verdict,
) -> Policy:
    """Produce the unified policy for an accepted comparison, in the
    report's mode.

    Raises MergeRejectedError when the verdict was not accepted.
    """
    if not verdict.accepted:
        failures = "; ".join(f.message for f in verdict.failures)
        raise MergeRejectedError(
            f"verdict rejected the combination of {policy_a.name!r} "
            f"and {policy_b.name!r}: {failures}"
        )
    if report.mode is ComparisonMode.ACQUIRE:
        return policy_a
    roots = _merge_children(policy_a.roots, policy_b.roots)
    return Policy(name=f"{policy_a.name}+{policy_b.name}", roots=roots)
