"""Shared hypothesis strategies for the test suite."""

from __future__ import annotations

import string
from dataclasses import replace

from hypothesis import strategies as st

from cpcompat.model import (
    ComparisonDiagnostic,
    ComparisonMode,
    ComparisonReport,
    Connective,
    Keyword,
    MatchStatus,
    NumberPath,
    Paragraph,
    ParagraphScore,
    Policy,
    PolicyOption,
)
from cpcompat.parser import MAX_DEPTH

# Small pool so generated option lists collide often, including duplicates.
SCORING_PHRASES = ("a", "b", "c", "d")

# Three phrases, each spelled with varying case and inner whitespace, so
# that equal normalized phrases are written differently on the two sides.
# (A phrase is stripped: the model refuses edge whitespace.)
SPELLED_PHRASES = tuple(
    f"{case(first)}{gap}{case(second)}"
    for first, second in (("key", "usage"), ("audit", "log"), ("name", "form"))
    for case in (str.lower, str.upper, str.title)
    for gap in (" ", "  ", "\t")
)

_TITLE_ALPHABET = string.ascii_letters + string.digits + " .-"
_PHRASE_ALPHABET = string.ascii_lowercase + string.digits + " .-"


def keywords_or_none() -> st.SearchStrategy[Keyword | None]:
    return st.sampled_from((None, *Keyword))


def connectives() -> st.SearchStrategy[Connective]:
    return st.sampled_from(tuple(Connective))


def modes() -> st.SearchStrategy[ComparisonMode]:
    return st.sampled_from(tuple(ComparisonMode))


def scoring_options(
    phrases: tuple[str, ...] = SCORING_PHRASES,
) -> st.SearchStrategy[PolicyOption]:
    return st.builds(
        PolicyOption,
        phrase=st.sampled_from(phrases),
        keyword=keywords_or_none(),
    )


def option_lists(
    min_size: int = 0,
    max_size: int = 5,
    phrases: tuple[str, ...] = SCORING_PHRASES,
) -> st.SearchStrategy[tuple[PolicyOption, ...]]:
    return st.lists(
        scoring_options(phrases), min_size=min_size, max_size=max_size
    ).map(tuple)


def _titles() -> st.SearchStrategy[str]:
    return (
        st.text(alphabet=_TITLE_ALPHABET, min_size=1, max_size=16)
        .map(str.strip)
        .map(lambda s: s or "Section")
    )


def _phrases() -> st.SearchStrategy[str]:
    return (
        st.text(alphabet=_PHRASE_ALPHABET, min_size=1, max_size=20)
        .map(str.strip)
        .map(lambda s: s or "option text")
    )


def _comments() -> st.SearchStrategy[str]:
    # Trailing whitespace would not survive a render/parse round trip.
    return st.text(alphabet=_TITLE_ALPHABET, max_size=20).map(
        lambda s: ("//" + s).rstrip()
    )


def document_options() -> st.SearchStrategy[PolicyOption]:
    return st.builds(
        PolicyOption,
        phrase=_phrases(),
        keyword=keywords_or_none(),
    )


# _paragraphs and policy_pairs_same_outline draw these on every section;
# built once, they are not built and unwrapped again on every draw.
_WEIGHTS = st.integers(1, 4)
_OPTION_COUNTS = st.integers(0, 4)
# Zero to three roots and up to two children a section, numbered with gaps,
# three levels deep.
_ROOT_SEGMENTS = st.lists(st.integers(1, 6), unique=True, max_size=3)
_CHILD_SEGMENTS = st.lists(st.integers(1, 5), unique=True, max_size=2)
_DEPTH = 3
_DOCUMENT_OPTIONS = document_options()
_TITLES = _titles()
_CONNECTIVES = connectives()
_COMMENT_LISTS = st.lists(_comments(), max_size=2)
_SCORING_OPTIONS = scoring_options()


@st.composite
def _paragraphs(
    draw,
    prefix: tuple[int, ...],
    depth_budget: int,
    unit_weights: bool,
) -> Paragraph:
    weight = 1 if unit_weights else draw(_WEIGHTS)
    n_options = draw(_OPTION_COUNTS)
    options = tuple(draw(_DOCUMENT_OPTIONS) for _ in range(n_options))
    children: list[Paragraph] = []
    if depth_budget > 0:
        segments = sorted(draw(_CHILD_SEGMENTS))
        for segment in segments:
            children.append(
                draw(
                    _paragraphs(
                        prefix=prefix + (segment,),
                        depth_budget=depth_budget - 1,
                        unit_weights=unit_weights,
                    )
                )
            )
    return Paragraph(
        path=NumberPath(prefix),
        title=draw(_TITLES),
        weight=weight,
        options=options,
        connective=draw(_CONNECTIVES),
        comments=tuple(draw(_COMMENT_LISTS)),
        children=tuple(children),
    )


@st.composite
def policies(draw, name: str = "P", unit_weights: bool = False) -> Policy:
    roots = tuple(
        draw(
            _paragraphs(
                prefix=(segment,),
                depth_budget=_DEPTH - 1,
                unit_weights=unit_weights,
            )
        )
        for segment in sorted(draw(_ROOT_SEGMENTS))
    )
    return Policy(name=name, roots=roots)


@st.composite
def policy_pairs_same_outline(
    draw,
    same_connective: bool = True,
    unit_weights: bool = True,
) -> tuple[Policy, Policy]:
    """Two policies with identical outlines (paths, titles, weights).

    Option lists are redrawn per side from the small scoring pool so that
    cross-side matches are common; connectives are shared when
    ``same_connective`` is set and drawn independently otherwise.
    """
    skeleton = draw(policies(unit_weights=unit_weights))

    def reclothe(paragraph: Paragraph) -> Paragraph:
        n_options = draw(_OPTION_COUNTS)
        options = tuple(draw(_SCORING_OPTIONS) for _ in range(n_options))
        connective = (
            paragraph.connective if same_connective else draw(_CONNECTIVES)
        )
        return Paragraph(
            path=paragraph.path,
            title=paragraph.title,
            weight=paragraph.weight,
            options=options,
            connective=connective,
            comments=paragraph.comments,
            children=tuple(reclothe(child) for child in paragraph.children),
        )

    side_a = Policy(name="A", roots=tuple(reclothe(root) for root in skeleton.roots))
    side_b = Policy(name="B", roots=tuple(reclothe(root) for root in skeleton.roots))
    return side_a, side_b


# Line fragments chosen to sit on the edges of the parser's line dispatch:
# unicode whitespace and digits, words that start with "c" but are not
# "Connection", labels with and without a space, a non-ASCII letter before
# ")", bare and tab-joined keywords, comment and path slashes, and dotted
# numbers that are not section numbers.
_SOUP_ATOMS = (
    "1", "2", "1.1", "1.2", "1.1.1", "0.1", "1..2", ".5", "01", "3x",
    "TOP", "Scope", "x", "rotate keys", "2",
    "\u00a0", "\u2003", "\u001f", "\u0663", "\u0661.\u0662",
    "cache", "Cx", "C", "connections", "Connection", "connection", "AND", "OR", "XOR",
    "a)", "A)", "b)", "a)MUST", "C)", "\u00e9)",
    "MUST", "RECOMMENDED", "OPTIONAL", "NOT", "MUST\tx",
    "//", "/etc",
)
_SOUP_SEPARATORS = (" ", " ", "  ", "\t", "", "\u00a0", "\u2003", "\u001f")


def _soup_lines() -> st.SearchStrategy[str]:
    pieces = st.lists(
        st.tuples(st.sampled_from(_SOUP_ATOMS), st.sampled_from(_SOUP_SEPARATORS)),
        min_size=1,
        max_size=5,
    )
    return pieces.map(lambda parts: "".join(a + s for a, s in parts))


def line_soups() -> st.SearchStrategy[str]:
    """Documents of at most 15 lines drawn from the dispatch edge cases,
    most of them opened by a heading so that later lines reach a section."""
    opening = st.sampled_from(((), ("1 TOP",), ("1 INTRO 2",), ("1 \u00a0TOP",)))
    return st.tuples(opening, st.lists(_soup_lines(), max_size=14)).map(
        lambda parts: "\n".join((*parts[0], *parts[1]))
    )


# Enough distinct phrases that two drawn wide sections overlap only in part,
# so their merged union often passes 26 options, where rendered labels run
# past z) to aa), ab) and on.
_WIDE_PHRASES = tuple(f"measure {index}" for index in range(40))


@st.composite
def wide_sections(draw) -> str:
    """Text of section 1 with 0 to 40 unlabeled options of distinct phrases,
    each with or without a keyword."""
    count = draw(st.integers(0, len(_WIDE_PHRASES)))
    phrases = draw(st.permutations(_WIDE_PHRASES))[:count]
    keywords = draw(
        st.lists(st.sampled_from(("", "MUST ", "NOT ")), min_size=count, max_size=count)
    )
    return "1 WIDE\n" + "".join(f"{k}{p}\n" for k, p in zip(keywords, phrases))


def chain_text(depth: int, root: int = 1, option: str = "") -> str:
    """A chain of ``depth`` nested sections under section ``root``, each the
    first child of the one before; ``option`` is the deepest section's body."""
    numbers = [str(root)] + ["1"] * (depth - 1)
    headings = "".join(
        ".".join(numbers[: level + 1]) + (" DEEP\n" if level == 0 else " Level\n")
        for level in range(depth)
    )
    return headings + option


def deep_chains() -> st.SearchStrategy[str]:
    """Chains under section 2, shallow or within two levels of the parser's
    depth limit on either side."""
    depths = st.one_of(st.integers(1, 4), st.integers(MAX_DEPTH - 2, MAX_DEPTH + 2))
    options = st.sampled_from(("", "MUST hold\n", "NOT hold\n", "other\n"))
    return st.builds(chain_text, depths, st.just(2), options)


def limit_documents() -> st.SearchStrategy[str]:
    """Documents on the program's size limits: a wide section 1 and a chain
    under section 2."""
    return st.tuples(wide_sections(), deep_chains()).map("".join)


# Text the format cannot always hold as it is: keywords, which an option
# line reads first, the line boundaries of str.splitlines other than "\n"
# and "\r", and whitespace that a parsed line loses at its edges; and text
# it must hold: dots, dashes, numbers that end a title (so its weight is
# spelled out) or open a phrase as "1.2 ...", and mixed case.
_HOSTILE_ATOMS = (
    "MUST", "NOT", "OPTIONAL", "RECOMMENDED", "x", "rotate keys", "a)", "1", "//",
    ".", "-", "1.2", "42", "2024", "Key", "aUDIT",
    " ", "  ", "\t", "\u00a0", "\u2028", "\x0b", "\x85", "\x1c",
)


def _hostile_text() -> st.SearchStrategy[str]:
    return st.lists(st.sampled_from(_HOSTILE_ATOMS), min_size=1, max_size=5).map("".join)


def _admitted(factory, *args, **kwargs):
    """``factory(*args, **kwargs)``, or None when the model refuses it."""
    try:
        return factory(*args, **kwargs)
    except ValueError:
        return None


@st.composite
def _hostile_paragraphs(draw, path: tuple[int, ...]) -> Paragraph | None:
    """A section built through the model API from hostile text, with the
    options, comments and subsections the model admits; None when it
    refuses the title."""
    paragraph = _admitted(
        Paragraph, NumberPath(path), draw(_hostile_text()), draw(_WEIGHTS),
        connective=draw(_CONNECTIVES),
    )
    if paragraph is None:
        return None
    for _ in range(draw(_OPTION_COUNTS)):
        option = _admitted(PolicyOption, draw(_hostile_text()), draw(keywords_or_none()))
        if option is not None:
            paragraph = replace(paragraph, options=paragraph.options + (option,))
    for _ in range(draw(st.integers(0, 2))):
        comments = paragraph.comments + ("//" + draw(_hostile_text()),)
        paragraph = _admitted(replace, paragraph, comments=comments) or paragraph
    if len(path) < _DEPTH:
        children = [draw(_hostile_paragraphs(path + (s,))) for s in sorted(draw(_CHILD_SEGMENTS))]
        paragraph = replace(paragraph, children=tuple(c for c in children if c is not None))
    return paragraph


@st.composite
def hostile_policies(draw) -> Policy:
    """Policies of the outlines ``policies()`` draws (zero to three roots,
    numbering gaps, weights 1 to 4, three levels), built through the model
    API from hostile text rather than parsed."""
    sections = [draw(_hostile_paragraphs((s,))) for s in sorted(draw(_ROOT_SEGMENTS))]
    return Policy(name="hostile", roots=tuple(s for s in sections if s is not None))


# Text a JSON writer must escape or pass through: quotes, backslashes,
# control characters, line and paragraph separators, non-ASCII, lone
# surrogates and astral characters.
_JSON_ATOMS = (
    '"', "\\", "/", "\x00", "\b", "\n", "\t", "\x1f", "\x7f", "\u2028", "\u2029",
    "\u00e9", "\ufeff", "\ud800", "\udcff", "\U0001f512", "MUST", " ",
)

# Scores as the model admits them, ints and floats, with the edge cases of
# repr: negative zero, the smallest subnormal and an integral 100.
_SCORES = st.one_of(
    st.integers(0, 100),
    st.floats(0, 100),
    st.sampled_from((-0.0, 5e-324, 100, 100.0, 1 / 3)),
)


def _json_text() -> st.SearchStrategy[str]:
    atoms = st.one_of(
        st.sampled_from(_JSON_ATOMS),
        st.characters(),
        st.characters(categories=["Cs"]),
    )
    return st.lists(atoms, max_size=8).map("".join)


def _number_paths() -> st.SearchStrategy[NumberPath]:
    return st.lists(st.integers(1, 10**12), min_size=1, max_size=4).map(
        lambda segments: NumberPath(tuple(segments))
    )


@st.composite
def api_reports(draw) -> ComparisonReport:
    """Reports built through the model API, with hostile names, codes and
    messages, int and float scores, and possibly no rows or diagnostics."""
    rows = [
        ParagraphScore(
            path=path,
            own_score=draw(_SCORES),
            child_aggregate=draw(st.none() | _SCORES),
            combined_score=draw(_SCORES),
            weight=draw(st.integers(1, 10**6)),
            match_status=draw(st.sampled_from(MatchStatus)),
        )
        for path in draw(st.lists(_number_paths(), unique=True, max_size=6))
    ]
    diagnostics = draw(
        st.lists(
            st.builds(ComparisonDiagnostic, _json_text(), st.none() | _number_paths(), _json_text()),
            max_size=4,
        )
    )
    return ComparisonReport(
        mode=draw(modes()),
        policy_a_name=draw(_json_text()),
        policy_b_name=draw(_json_text()),
        paragraph_scores=tuple(rows),
        diagnostics=tuple(diagnostics),
    )
