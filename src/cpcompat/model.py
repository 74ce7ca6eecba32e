"""Domain model for standardized certificate policy documents.

A standardized certificate policy (CP) is a numbered outline, as laid out in
the RFC 3647 framework: main sections, nested subsections, and per-paragraph
requirement options that may carry an RFC 2119 keyword.  Everything in this
module is immutable after construction, so parsed policies and comparison
reports can be shared freely across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator

# ASCII digits only, as in a section heading.
_DOTTED_RE = re.compile(r"[0-9]+(?:\.[0-9]+)*")

#: Float noise an acceptance rule tolerates when it compares a score with its threshold.
SCORE_EPSILON = 1e-9

#: Most segments a section number may have. The parser reports deeper
#: headings as errors and NumberPath refuses them, which keeps every
#: recursive walk over a policy tree far from the interpreter's recursion
#: limit and every tree the model admits within what the parser reads back.
MAX_DEPTH = 100

# The one type a section number segment may have, as NumberPath checks it.
_INT_ONLY = {int}
# The types a score may have, as ParagraphScore checks it.
_SCORE_TYPES = (int, float)


class Keyword(Enum):
    """Requirement keywords and their strength values.

    The four keywords map onto [0, 1].  MUST is an absolute requirement and
    NOT an excluded one; RECOMMENDED sits close to MUST, OPTIONAL halfway.
    The numeric spread is what lets near-agreements (MUST vs RECOMMENDED)
    score higher than outright conflicts (MUST vs NOT).
    """

    MUST = 1.0
    RECOMMENDED = 0.8
    OPTIONAL = 0.5
    NOT = 0.0


_KEYWORD_NAMES = frozenset(Keyword.__members__)


def _check_weight(weight: int) -> None:
    """Require a positive int weight: a bool or float would be written as
    text the parser does not read back as that weight."""
    if type(weight) is not int:
        raise ValueError(f"weight must be an int, got {weight!r}")
    if weight < 1:
        raise ValueError(f"weight must be >= 1, got {weight}")


def _check_line(text: str, what: str) -> None:
    """Require text that one parsed line gives back: non-empty, stripped,
    and free of str.splitlines's line boundaries (all of them whitespace
    that str.strip would remove at an edge)."""
    if not text or text != text.strip():
        raise ValueError(f"{what} must be non-empty and stripped: {text!r}")
    if len(text.splitlines()) != 1:
        raise ValueError(f"{what} must not contain line breaks: {text!r}")


def normalize_phrase(text: str) -> str:
    """Canonical form used for option equality.

    Lowercases, strips, and collapses internal whitespace runs to single
    spaces.  Idempotent.  Label markers and keywords are removed by the
    parser before a phrase ever reaches this function.
    """
    return " ".join(text.split()).lower()


class Connective(Enum):
    """How a paragraph's options combine.

    OR means any single option satisfies the paragraph; AND means all of
    them are required.  NONE records that the paragraph declared no
    Connection line (scoring then treats the options as jointly required).
    """

    AND = "AND"
    OR = "OR"
    NONE = "NONE"


class ComparisonMode(Enum):
    """MERGE compares peers for cross-certification; ACQUIRE assesses how the
    acquired side (B) can adapt to the acquirer (A)."""

    MERGE = "merge"
    ACQUIRE = "acquire"


class MatchStatus(Enum):
    """How a paragraph pair lined up across the two policies."""

    MATCHED = "matched"
    MISSING_IN_A = "missing_in_a"
    MISSING_IN_B = "missing_in_b"
    BOTH_EMPTY = "both_empty"


@dataclass(frozen=True, order=True)
class NumberPath:
    """Hierarchical section number such as 1.3.1.1."""

    segments: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("number path needs at least one segment")
        # Only an int is written as digits; a bool or float would render as
        # a heading the parser reads back differently.
        if {*map(type, self.segments)} != _INT_ONLY:
            raise ValueError(f"number path segments must be int, got {self.segments!r}")
        if min(self.segments) < 1:
            raise ValueError(f"number path segments must be >= 1, got {self.segments}")
        if len(self.segments) > MAX_DEPTH:
            raise ValueError(f"number path has more than {MAX_DEPTH} segments")

    @classmethod
    def parse(cls, dotted: str) -> "NumberPath":
        if not _DOTTED_RE.fullmatch(dotted):
            raise ValueError(f"not a dotted section number: {dotted!r}")
        return cls(tuple(int(part) for part in dotted.split(".")))

    @property
    def dotted(self) -> str:
        return ".".join(map(str, self.segments))

    @property
    def depth(self) -> int:
        return len(self.segments)

    def __str__(self) -> str:
        return self.dotted


@dataclass(frozen=True)
class PolicyOption:
    """One option line of a paragraph.

    ``keyword`` is the optional requirement keyword, ``phrase`` the option
    text itself. Option matching compares phrases after
    :func:`normalize_phrase`. The label of the source line ("a)", "aa)")
    is layout: the parser checks it and the renderer writes a fresh one.
    A phrase without a keyword may not start with a keyword token, which
    the parser would read as the option's keyword.
    """

    phrase: str
    keyword: Keyword | None = None

    def __post_init__(self) -> None:
        _check_line(self.phrase, "option phrase")
        if self.keyword is None and self.phrase.partition(" ")[0] in _KEYWORD_NAMES:
            raise ValueError(f"option phrase without a keyword starts with one: {self.phrase!r}")


def option_keyword_value(option: PolicyOption) -> float:
    """Strength of an option's keyword.

    An option with no keyword is an unqualified statement, which a policy
    means as a requirement, so it counts as MUST (1.0).
    """
    return option.keyword.value if option.keyword is not None else Keyword.MUST.value


def _check_children(
    children: tuple["Paragraph", ...], prefix: tuple[int, ...], owner: object
) -> None:
    """Require each child's path to extend ``prefix`` by one segment, with
    those segments strictly increasing. A policy's roots extend the empty
    prefix, so they are the sections of depth 1. ``owner`` names the parent
    in error messages; it is formatted only when a check fails."""
    previous_segment = 0
    for child in children:
        segments = child.path.segments
        # Path segments are never empty, so equal prefixes mean one more segment.
        if segments[:-1] != prefix:
            raise ValueError(f"child {child.path} does not extend {owner} by one segment")
        segment = segments[-1]
        if segment <= previous_segment:
            raise ValueError(
                f"children of {owner} must be strictly ordered, "
                f"got segment {segment} after {previous_segment}"
            )
        previous_segment = segment


@dataclass(frozen=True)
class Paragraph:
    """One numbered section of a policy with its options and subparagraphs.

    ``comments`` holds "//" lines verbatim; they are carried through
    parsing, rendering, and merging but never scored.
    """

    path: NumberPath
    title: str
    weight: int = 1
    options: tuple[PolicyOption, ...] = ()
    connective: Connective = Connective.NONE
    comments: tuple[str, ...] = ()
    children: tuple["Paragraph", ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", tuple(self.options))
        object.__setattr__(self, "comments", tuple(self.comments))
        object.__setattr__(self, "children", tuple(self.children))
        _check_line(self.title, "title")
        _check_weight(self.weight)
        for comment in self.comments:
            if not comment.startswith("//"):
                raise ValueError(f"comment must start with //: {comment!r}")
            _check_line(comment, "comment")
        _check_children(self.children, self.path.segments, self.path)

    def walk(self) -> Iterator["Paragraph"]:
        """This paragraph and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class Policy:
    """A parsed standardized certificate policy: a name and its main sections."""

    name: str
    roots: tuple[Paragraph, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "roots", tuple(self.roots))
        _check_children(self.roots, (), "the policy root")

    def walk(self) -> Iterator[Paragraph]:
        """All paragraphs of the policy, preorder."""
        for root in self.roots:
            yield from root.walk()


@dataclass(frozen=True)
class ParagraphScore:
    """Scores for one aligned paragraph pair.

    ``own_score`` reflects the paragraph's options alone; ``child_aggregate``
    is the weighted mean of the subparagraph scores (present only when side
    A has children); ``combined_score`` folds the two together and is the
    value the overall document score and acceptance rules consume.
    """

    path: NumberPath
    own_score: float
    child_aggregate: float | None
    combined_score: float
    weight: int
    match_status: MatchStatus

    def __post_init__(self) -> None:
        # The JSON report writes a score as its repr, which is JSON for an
        # int or a float and nothing else (not for True, None or a subclass).
        for name in ("own_score", "child_aggregate", "combined_score"):
            value = getattr(self, name)
            if value is None and name == "child_aggregate":
                continue
            if type(value) not in _SCORE_TYPES:
                raise ValueError(f"{name} must be an int or float, got {value!r}")
            if not 0.0 <= value <= 100.0:
                raise ValueError(f"{name} out of range [0, 100]: {value}")
        _check_weight(self.weight)


def weighted_mean(scored: Iterable[tuple[float, int]]) -> float:
    """Mean of (score, weight) pairs; ValueError when the weights add up to 0."""
    # Left to right on purpose: the builtin sum() of floats is compensated
    # from Python 3.12 on, which would make reports differ by interpreter.
    total = 0.0
    weight_sum = 0
    for score, weight in scored:
        total += score * weight
        weight_sum += weight
    if weight_sum == 0:
        raise ValueError("weighted mean needs a positive total weight")
    return total / weight_sum


def overall_scores(rows: Iterable[ParagraphScore]) -> tuple[float, float]:
    """Weighted and unweighted mean combined score of the top-level rows.

    Deeper rows are already folded into their ancestors' combined scores.
    With no top-level rows nothing was required, so both figures are 100.
    """
    top = [row for row in rows if row.path.depth == 1]
    if not top:
        return 100.0, 100.0
    weighted = weighted_mean((row.combined_score, row.weight) for row in top)
    unweighted = weighted_mean((row.combined_score, 1) for row in top)
    return weighted, unweighted


@dataclass(frozen=True)
class ComparisonDiagnostic:
    """Structured warning attached to a comparison report."""

    code: str
    path: NumberPath | None
    message: str


@dataclass(frozen=True)
class ComparisonReport:
    """Full outcome of comparing policy B against policy A.

    ``paragraph_scores`` has one row per aligned path at every depth.  The
    overall scores are derived from the rows by :func:`overall_scores`.
    """

    mode: ComparisonMode
    policy_a_name: str
    policy_b_name: str
    paragraph_scores: tuple[ParagraphScore, ...]
    overall_weighted: float = field(init=False)
    overall_unweighted: float = field(init=False)
    diagnostics: tuple[ComparisonDiagnostic, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "paragraph_scores", tuple(self.paragraph_scores))
        object.__setattr__(self, "diagnostics", tuple(self.diagnostics))
        # A plain attribute, not a field: equality, hashing, repr and
        # asdict() see only the declared fields.
        by_path = {score.path: score for score in self.paragraph_scores}
        if len(by_path) != len(self.paragraph_scores):
            raise ValueError("every aligned path may appear only once")
        object.__setattr__(self, "_by_path", by_path)
        weighted, unweighted = overall_scores(self.paragraph_scores)
        object.__setattr__(self, "overall_weighted", weighted)
        object.__setattr__(self, "overall_unweighted", unweighted)

    def find(self, path: NumberPath) -> ParagraphScore | None:
        return self._by_path.get(path)
