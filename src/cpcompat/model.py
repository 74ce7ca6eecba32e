"""Domain model for standardized certificate policy documents.

A standardized certificate policy (CP) is a numbered outline, as laid out in
the RFC 3647 framework: main sections, nested subsections, and per-paragraph
requirement options that may carry an RFC 2119 keyword.  Everything in this
module is immutable after construction, so parsed policies and comparison
reports can be shared freely across threads.

Every value class derives from :class:`_Frozen`, which supplies repr,
equality, hashing, pickling and the refusal to assign from the names in
the class's ``__slots__``. Each class writes its own ``__init__``: it
checks its arguments and stores each through its slot descriptor
(:func:`slot_setters`). Copies, pickles and ``__replace__`` (behind
``copy.replace`` from Python 3.13 on) go through that ``__init__``, so a
changed copy is checked like a new value. ``dataclasses`` is not used:
importing it loads ``inspect``, and decorating a class runs ``exec``,
which would cost more at start-up than a compare at the paper's size.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator
from enum import Enum

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


#: Keyword members by name, the one table the parser and PolicyOption read.
#: A plain dict: Enum's ``__getitem__`` and ``__members__`` are Python calls.
KEYWORDS = {keyword._name_: keyword for keyword in Keyword}


def _check_weight(weight: int) -> None:
    """Require a positive int weight: a bool or float would be written as
    text the parser does not read back as that weight."""
    if type(weight) is not int:
        raise ValueError(f"weight must be an int, got {weight!r}")
    if weight < 1:
        raise ValueError(f"weight must be >= 1, got {weight}")


def _check_score(score: float, what: str) -> None:
    """Require an int or float in [0, 100]."""
    # The JSON report writes a score as its repr, which is JSON for an int
    # or a float and nothing else (not for True, None or a subclass).
    if type(score) not in _SCORE_TYPES:
        raise ValueError(f"{what} must be an int or float, got {score!r}")
    if not 0.0 <= score <= 100.0:
        raise ValueError(f"{what} out of range [0, 100]: {score}")


def _check_type(value: object, kind: type, what: str) -> None:
    """Require an instance of ``kind``: the JSON report writes every text
    field as a string, and the renderer and scoring read enum members and
    paths by their attributes."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r}")


def _check_line(text: str, what: str) -> None:
    """Require text that one parsed line gives back: non-empty, stripped,
    and free of str.splitlines's line boundaries (all of them whitespace
    that str.strip would remove at an edge)."""
    if not text or text != text.strip():
        raise ValueError(f"{what} must be non-empty and stripped: {text!r}")
    # Every line boundary is unprintable, so printable text needs no split.
    if not text.isprintable() and len(text.splitlines()) != 1:
        raise ValueError(f"{what} must not contain line breaks: {text!r}")


def normalize_phrase(text: str) -> str:
    """Canonical form used for option equality.

    Lowercases, strips, and collapses internal whitespace runs to single
    spaces.  Idempotent.  Label markers and keywords are removed by the
    parser before a phrase ever reaches this function.
    """
    return " ".join(text.split()).lower()


def titles_differ(title_a: str, title_b: str) -> bool:
    """Whether two section titles differ after :func:`normalize_phrase`, the
    test behind compare's TITLE_MISMATCH and merge's title flag."""
    # Most paired titles are equal as written and need no normalizing.
    return title_a != title_b and normalize_phrase(title_a) != normalize_phrase(title_b)


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


class _Frozen:
    """Base of the immutable value classes.

    A subclass names its fields in ``__slots__``, in order; a slot whose
    name starts with ``_`` holds derived data, outside equality, hashing and
    repr. An instance equals only an instance of its own class.
    ``__match_args__`` names the parameters of the subclass's ``__init__``,
    which are its fields unless the class lists them itself. Copies and
    pickles rebuild a value through ``__init__`` from those parameters, and
    ``__replace__`` calls it with the changes, so both run every check of a
    new value.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __match_args__: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(name for name in cls.__slots__ if name[0] != "_")
        if not hasattr(cls, "__match_args__"):
            cls.__match_args__ = cls._fields

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, tuple([getattr(self, name) for name in self.__match_args__])

    def __replace__(self, **changes: object) -> _Frozen:
        for name in self.__match_args__:
            changes.setdefault(name, getattr(self, name))
        return self.__class__(**changes)


def slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each slot descriptor of ``cls``, in the order of
    its ``__slots__``, for its ``__init__`` to store its checked arguments
    with."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class NumberPath(_Frozen):
    """Hierarchical section number such as 1.3.1.1."""

    __slots__ = ("segments",)

    def __init__(self, segments: tuple[int, ...]) -> None:
        if type(segments) is not tuple:
            segments = tuple(segments)
        if not segments:
            raise ValueError("number path needs at least one segment")
        # Only an int is written as digits; a bool or float would render as
        # a heading the parser reads back differently.
        if not _INT_ONLY.issuperset(map(type, segments)):
            raise ValueError(f"number path segments must be int, got {segments!r}")
        if min(segments) < 1:
            raise ValueError(f"number path segments must be >= 1, got {segments}")
        if len(segments) > MAX_DEPTH:
            raise ValueError(f"number path has more than {MAX_DEPTH} segments")
        _set_segments(self, segments)

    @classmethod
    def parse(cls, dotted: str) -> "NumberPath":
        if not _DOTTED_RE.fullmatch(dotted):
            raise ValueError(f"not a dotted section number: {dotted!r}")
        return cls(tuple(int(part) for part in dotted.split(".")))

    @property
    def dotted(self) -> str:
        # One format call; str.join over map(str, ...) costs more per row.
        segments = self.segments
        return ("%d" + ".%d" * (len(segments) - 1)) % segments

    def __str__(self) -> str:
        return self.dotted


(_set_segments,) = slot_setters(NumberPath)


class PolicyOption(_Frozen):
    """One option line of a paragraph.

    ``keyword`` is the optional requirement keyword, ``phrase`` the option
    text itself. Option matching compares phrases after
    :func:`normalize_phrase`. The label of the source line ("a)", "aa)")
    is layout: the parser checks it and the renderer writes a fresh one.
    A phrase without a keyword may not start with a keyword token, which
    the parser would read as the option's keyword.
    """

    __slots__ = ("phrase", "keyword")

    def __init__(self, phrase: str, keyword: Keyword | None = None) -> None:
        _check_line(phrase, "option phrase")
        if keyword is not None:
            if not isinstance(keyword, Keyword):
                raise ValueError(f"option keyword must be a Keyword, got {keyword!r}")
        elif phrase.partition(" ")[0] in KEYWORDS:
            raise ValueError(f"option phrase without a keyword starts with one: {phrase!r}")
        _set_phrase(self, phrase)
        _set_keyword(self, keyword)


_set_phrase, _set_keyword = slot_setters(PolicyOption)


def option_keyword_value(option: PolicyOption) -> float:
    """Strength of an option's keyword.

    An option with no keyword is an unqualified statement, which a policy
    means as a requirement, so it counts as MUST (1.0).
    """
    # _value_ is a plain attribute; Enum's value descriptor and hash are
    # Python calls.
    keyword = option.keyword
    return Keyword.MUST._value_ if keyword is None else keyword._value_


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


class Paragraph(_Frozen):
    """One numbered section of a policy with its options and subparagraphs.

    ``comments`` holds "//" lines verbatim; they are carried through
    parsing, rendering, and merging but never scored.
    """

    __slots__ = ("path", "title", "weight", "options", "connective", "comments", "children")

    def __init__(self, path: NumberPath, title: str, weight: int = 1,
                 options: tuple[PolicyOption, ...] = (), connective: Connective = Connective.NONE,
                 comments: tuple[str, ...] = (), children: tuple["Paragraph", ...] = ()) -> None:
        if not isinstance(path, NumberPath):
            raise ValueError(f"paragraph path must be a NumberPath, got {path!r}")
        if not isinstance(connective, Connective):
            raise ValueError(f"paragraph connective must be a Connective, got {connective!r}")
        if type(options) is not tuple:
            options = tuple(options)
        if type(comments) is not tuple:
            comments = tuple(comments)
        if type(children) is not tuple:
            children = tuple(children)
        _check_line(title, "title")
        _check_weight(weight)
        for comment in comments:
            if not comment.startswith("//"):
                raise ValueError(f"comment must start with //: {comment!r}")
            _check_line(comment, "comment")
        if children:
            _check_children(children, path.segments, path)
        _set_path(self, path)
        _set_title(self, title)
        _set_weight(self, weight)
        _set_options(self, options)
        _set_connective(self, connective)
        _set_comments(self, comments)
        _set_children(self, children)


(_set_path, _set_title, _set_weight, _set_options,
 _set_connective, _set_comments, _set_children) = slot_setters(Paragraph)


class Policy(_Frozen):
    """A parsed standardized certificate policy: a name and its main sections."""

    __slots__ = ("name", "roots")

    def __init__(self, name: str, roots: tuple[Paragraph, ...] = ()) -> None:
        _check_type(name, str, "policy name")
        roots = tuple(roots)
        _check_children(roots, (), "the policy root")
        _set_name(self, name)
        _set_roots(self, roots)

    def walk(self) -> Iterator[Paragraph]:
        """All paragraphs of the policy, preorder, with one frame however
        deep the tree."""
        pending = list(reversed(self.roots))
        while pending:
            paragraph = pending.pop()
            yield paragraph
            pending.extend(reversed(paragraph.children))


_set_name, _set_roots = slot_setters(Policy)


class ParagraphScore(_Frozen):
    """Scores for one aligned paragraph pair.

    ``own_score`` reflects the paragraph's options alone; ``child_aggregate``
    is the weighted mean of the subparagraph scores (present only when side
    A has children); ``combined_score`` folds the two together and is the
    value the overall document score and acceptance rules consume.
    """

    __slots__ = ("path", "own_score", "child_aggregate", "combined_score", "weight", "match_status")

    def __init__(self, path: NumberPath, own_score: float, child_aggregate: float | None,
                 combined_score: float, weight: int, match_status: MatchStatus) -> None:
        if not isinstance(path, NumberPath):
            raise ValueError(f"score path must be a NumberPath, got {path!r}")
        if not isinstance(match_status, MatchStatus):
            raise ValueError(f"match_status must be a MatchStatus, got {match_status!r}")
        _check_score(own_score, "own_score")
        if child_aggregate is not None:
            _check_score(child_aggregate, "child_aggregate")
        _check_score(combined_score, "combined_score")
        _check_weight(weight)
        _set_score_path(self, path)
        _set_own_score(self, own_score)
        _set_child_aggregate(self, child_aggregate)
        _set_combined_score(self, combined_score)
        _set_score_weight(self, weight)
        _set_match_status(self, match_status)


(_set_score_path, _set_own_score, _set_child_aggregate,
 _set_combined_score, _set_score_weight, _set_match_status) = slot_setters(ParagraphScore)


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
    top = [row for row in rows if len(row.path.segments) == 1]
    if not top:
        return 100.0, 100.0
    weighted = weighted_mean((row.combined_score, row.weight) for row in top)
    unweighted = weighted_mean((row.combined_score, 1) for row in top)
    return weighted, unweighted


class ComparisonDiagnostic(_Frozen):
    """Structured warning attached to a comparison report."""

    __slots__ = ("code", "path", "message")

    def __init__(self, code: str, path: NumberPath | None, message: str) -> None:
        # The JSON report writes path as its dotted number or null.
        _check_type(code, str, "diagnostic code")
        if path is not None and not isinstance(path, NumberPath):
            raise ValueError(f"diagnostic path must be a NumberPath or None, got {path!r}")
        _check_type(message, str, "diagnostic message")
        _set_code(self, code)
        _set_diagnostic_path(self, path)
        _set_message(self, message)


_set_code, _set_diagnostic_path, _set_message = slot_setters(ComparisonDiagnostic)


class ComparisonReport(_Frozen):
    """Full outcome of comparing policy B against policy A.

    ``paragraph_scores`` has one row per aligned path at every depth.  The
    overall scores are derived from the rows by :func:`overall_scores`, so
    the constructor does not take them.
    """

    __slots__ = ("mode", "policy_a_name", "policy_b_name", "paragraph_scores",
                 "overall_weighted", "overall_unweighted", "diagnostics", "_by_path")
    __match_args__ = ("mode", "policy_a_name", "policy_b_name", "paragraph_scores", "diagnostics")

    def __init__(self, mode: ComparisonMode, policy_a_name: str, policy_b_name: str,
                 paragraph_scores: tuple[ParagraphScore, ...],
                 diagnostics: tuple[ComparisonDiagnostic, ...] = ()) -> None:
        _check_type(mode, ComparisonMode, "report mode")
        _check_type(policy_a_name, str, "policy_a_name")
        _check_type(policy_b_name, str, "policy_b_name")
        paragraph_scores = tuple(paragraph_scores)
        diagnostics = tuple(diagnostics)
        # Keyed by segment tuples, whose hash is C code, where NumberPath's
        # is Python.
        by_path = {score.path.segments: score for score in paragraph_scores}
        if len(by_path) != len(paragraph_scores):
            raise ValueError("every aligned path may appear only once")
        weighted, unweighted = overall_scores(paragraph_scores)
        _set_mode(self, mode)
        _set_policy_a_name(self, policy_a_name)
        _set_policy_b_name(self, policy_b_name)
        _set_paragraph_scores(self, paragraph_scores)
        _set_overall_weighted(self, weighted)
        _set_overall_unweighted(self, unweighted)
        _set_diagnostics(self, diagnostics)
        _set_by_path(self, by_path)

    def find(self, path: NumberPath) -> ParagraphScore | None:
        return self._by_path.get(path.segments)


(_set_mode, _set_policy_a_name, _set_policy_b_name, _set_paragraph_scores,
 _set_overall_weighted, _set_overall_unweighted, _set_diagnostics,
 _set_by_path) = slot_setters(ComparisonReport)
