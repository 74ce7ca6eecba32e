"""Shared hypothesis strategies for the test suite."""

from __future__ import annotations

from itertools import combinations, product

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


# Text the format cannot always hold as it is: keywords, which an option
# line reads first, and whitespace that a parsed line loses at its edges;
# and text it must hold: dots, dashes, numbers that end a title (so its
# weight is spelled out) or open a phrase as "1.2 ...", and mixed case.
# The line boundaries of str.splitlines are left out: the model refuses
# every text that holds one.
_HOSTILE_ATOMS = (
    "MUST", "NOT", "OPTIONAL", "RECOMMENDED", "x", "rotate keys", "a)", "1", "//",
    ".", "-", "1.2", "42", "2024", "Key", "aUDIT",
    " ", "  ", "\t", "\u00a0",
)
_RUNS = tuple(
    dict.fromkeys("".join(run) for size in (1, 2, 3) for run in product(_HOSTILE_ATOMS, repeat=size))
)


def _admits(factory, *args, **kwargs) -> bool:
    try:
        factory(*args, **kwargs)
    except ValueError:
        return False
    return True


# Every run of one to three hostile atoms that the model admits as a line,
# drawn whole, so that no drawn section or option is ever refused.
_LINES = tuple(text for text in _RUNS if _admits(PolicyOption, text, Keyword.MUST))
_TITLES = st.sampled_from(_LINES)
# A phrase without a keyword may not open with one.
_HOSTILE_OPTIONS = st.sampled_from(tuple(
    PolicyOption(text, keyword)
    for keyword in (None, *Keyword)
    for text in _LINES
    if keyword or _admits(PolicyOption, text)
))
# A comment keeps the whitespace after "//", which the model admits, but
# not at its end, which it refuses.
_COMMENT_LISTS = st.lists(
    st.sampled_from(tuple(dict.fromkeys(("//" + text).rstrip() for text in _RUNS))), max_size=2
)
_SPELLED_OPTIONS = scoring_options(SPELLED_PHRASES)
_WEIGHTS = st.integers(1, 4)
_OPTION_COUNTS = st.integers(0, 4)
_CONNECTIVES = connectives()
# Each set of one to three roots numbered 1 to 6, or of up to two children
# numbered 1 to 5, in one draw, so most sections have siblings and gaps in
# their numbering; three levels deep.
_ROOT_SEGMENTS = st.sampled_from([c for n in (1, 2, 3) for c in combinations(range(1, 7), n)])
_CHILD_SEGMENTS = st.sampled_from([c for n in (0, 1, 2) for c in combinations(range(1, 6), n)])
_DEPTH = 3


def _sections(draw, prefix, segments, clothe) -> list[tuple[Paragraph, ...]]:
    """The sections numbered ``prefix`` and a segment that ``segments``
    draws, with their subtrees, each as one paragraph per side. The sides
    share the outline: numbers, titles, weights and comments.
    ``clothe(draw)`` gives each side its options and connective."""
    sections = []
    for segment in draw(segments):
        path = prefix + (segment,)
        title, weight, comments = draw(_TITLES), draw(_WEIGHTS), tuple(draw(_COMMENT_LISTS))
        children = _sections(draw, path, _CHILD_SEGMENTS, clothe) if len(path) < _DEPTH else []
        sections.append(tuple(
            Paragraph(
                NumberPath(path), title, weight, options, connective, comments,
                tuple(child[side] for child in children),
            )
            for side, (options, connective) in enumerate(clothe(draw))
        ))
    return sections


def _options(draw, options) -> tuple[PolicyOption, ...]:
    return tuple(draw(options) for _ in range(draw(_OPTION_COUNTS)))


def _hostile_clothes(draw):
    return ((_options(draw, _HOSTILE_OPTIONS), draw(_CONNECTIVES)),)


def _policy(draw, name: str) -> Policy:
    sections = _sections(draw, (), _ROOT_SEGMENTS, _hostile_clothes)
    return Policy(name=name, roots=tuple(root for (root,) in sections))


@st.composite
def policies(draw, name: str = "P") -> Policy:
    """Policies of one to three roots, numbering gaps, weights 1 to 4 and
    three levels, built through the model API from hostile text."""
    return _policy(draw, name)


@st.composite
def policy_pairs(draw) -> tuple[Policy, Policy]:
    """Policies A and B of ``policies()``, drawn in one value. Hypothesis
    copies one drawn value onto another of the same strategy, so two
    ``policies()`` draws are identical far more often (74 in 1000
    derandomized pairs)."""
    return _policy(draw, "A"), _policy(draw, "B")


@st.composite
def policy_pairs_same_outline(draw, same_connective: bool = True) -> tuple[Policy, Policy]:
    """Two policies with one outline (numbers, titles, weights, comments).

    Options are drawn per side from ``SPELLED_PHRASES``, so that cross-side
    matches are common and differently spelled; connectives are shared when
    ``same_connective`` is set and drawn per side otherwise.
    """

    def clothe(draw):
        connective = draw(_CONNECTIVES)
        connectives = (connective, connective if same_connective else draw(_CONNECTIVES))
        return tuple((_options(draw, _SPELLED_OPTIONS), c) for c in connectives)

    sections = _sections(draw, (), _ROOT_SEGMENTS, clothe)
    return (
        Policy(name="A", roots=tuple(a for a, _ in sections)),
        Policy(name="B", roots=tuple(b for _, b in sections)),
    )


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
