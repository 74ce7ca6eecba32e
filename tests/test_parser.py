"""Tests for the policy text parser and renderer.

Each example of the policy grammar is asserted in full: the document, the
tree it parses to (None when it draws an error) and every diagnostic, with
its severity, code, line and message. ``_document`` and ``_documents`` make
the tests of such rows and record each row in ``DOCUMENTS``, which names
every code FORMAT.md documents. Each rendering example is a ``_rendered``
row: a document and the whole text its policy renders to.
"""

from __future__ import annotations

import re
from functools import partial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpcompat.model import Connective, Keyword, NumberPath, Paragraph, Policy, PolicyOption
from cpcompat.parser import (
    MAX_DEPTH,
    ParseDiagnostic,
    Severity,
    parse_policy,
    render_policy,
)

from conftest import find
from oracle import oracle_option_line
from strategies import _soup_lines, chain_text, line_soups, policies
from test_docs import diagnostic_tables

MUST, RECOMMENDED, OPTIONAL, NOT = Keyword.MUST, Keyword.RECOMMENDED, Keyword.OPTIONAL, Keyword.NOT
AND, OR = Connective.AND, Connective.OR

_error = partial(ParseDiagnostic, Severity.ERROR)
_warning = partial(ParseDiagnostic, Severity.WARNING)


def parse_ok(text: str, name: str = "P"):
    """Parse text that is expected to produce a policy (warnings allowed)."""
    policy, diagnostics = parse_policy(text, name=name)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    assert not errors, errors
    assert policy is not None
    return policy, diagnostics


def _section(dotted, title, *options, weight=1, connective=Connective.NONE, comments=(), children=()):
    return Paragraph(NumberPath.parse(dotted), title, weight, options, connective, comments, children)


def _policy(*roots, name="P"):
    return Policy(name, roots)


def _one(title, *options, **fields):
    """The policy whose one section is ``1 title``, holding ``options``."""
    return _policy(_section("1", title, *options, **fields))


def _intro(*options, **fields):
    return _one("INTRO", *options, **fields)


def _bad_label(label, line=2):
    return _warning("BAD_OPTION_LABEL", line, f"option label {label!r} should be lower case")


def _duplicate_label(label, line=3):
    return _error("DUPLICATE_OPTION_LABEL", line, f"option label {label!r} is already used in this paragraph")


def _heading_like(token):
    return _warning("HEADING_LIKE_OPTION", 2, f"option starts with {token!r}, which looks like a section number")


def _out_of_order(dotted, line):
    return _error("SECTION_OUT_OF_ORDER", line, f"section {dotted} does not follow its siblings in order")


def _bad_connective(line):
    return _error("BAD_CONNECTIVE", line, "Connection line must read 'Connection AND' or 'Connection OR'")


_EMPTY_PHRASE = _error("EMPTY_OPTION_PHRASE", 2, "option has no phrase text")
_DUPLICATE_1 = _error("DUPLICATE_SECTION", 2, "section 1 already defined")

# Every (text, policy, diagnostics) row of this module.
DOCUMENTS = []


def _document(text, policy, diagnostics):
    """A test that ``text`` parses to exactly ``policy`` and ``diagnostics``."""
    DOCUMENTS.append((text, policy, diagnostics))

    def test(self):
        assert parse_policy(text, name="P") == (policy, diagnostics)

    return test


def _documents(*rows, ids=None):
    """One test over ``(text, policy, diagnostics)`` rows, a case each."""
    DOCUMENTS.extend(rows)

    @pytest.mark.parametrize("text, policy, diagnostics", rows, ids=ids)
    def test(self, text, policy, diagnostics):
        assert parse_policy(text, name="P") == (policy, diagnostics)

    return test


def test_documents_name_every_documented_code():
    """The rows' errors are FORMAT.md's Errors table, and their warnings
    its Warnings table, so a new code needs a row."""
    named = {"Errors": set(), "Warnings": set()}
    for _, _, diagnostics in DOCUMENTS:
        for d in diagnostics:
            named["Errors" if d.severity is Severity.ERROR else "Warnings"].add(d.code)
    assert named == diagnostic_tables()


# The sample fragment of the source paper: comments written without a
# space, a title that is an ellipsis, nesting to the fourth level and a
# connective on section 1.2.
PAPER_FRAGMENT = """\
1 INTRODUCTION
1.1 Overview
//Gives an overview about the document
1.2 Document name and identification
a) RECOMMENDED Document name
b) MUST Designated identification
Connection AND
1.3 PKI participants
//Described in the subsections
1.3.1 Certification authorities
a) Issues certificates to end users
b) Issues certificates to other users
1.3.1.1 Root authorities
a) Specifies the difference to the CAs
1.3.2 Registration authorities
1.3.3 Subscribers
1.3.4 . . .
"""


class TestGoldenDocument:
    def test_parses_to_the_whole_tree(self, sample_policy_text):
        root_authorities = _section("1.3.1.1", "Root Authorities", PolicyOption("operate offline", MUST))
        introduction = _section(
            "1",
            "INTRODUCTION",
            weight=3,
            comments=("// Scope of the document",),
            children=(
                _section(
                    "1.1",
                    "Overview",
                    PolicyOption("provide an overview", MUST),
                    PolicyOption("include a diagram", RECOMMENDED),
                    weight=2,
                ),
                _section(
                    "1.2",
                    "Document Name and Identification",
                    PolicyOption("state the document name", MUST),
                    PolicyOption("register an OID", OPTIONAL),
                    connective=AND,
                ),
                _section(
                    "1.3",
                    "PKI Participants",
                    weight=2,
                    children=(_section("1.3.1", "Certification Authorities", children=(root_authorities,)),),
                ),
            ),
        )
        publication = _section(
            "2", "PUBLICATION AND REPOSITORY RESPONSIBILITIES", PolicyOption("publish the certificate policy", MUST)
        )
        expected = _policy(introduction, publication, name="sample")
        assert parse_policy(sample_policy_text, name="sample") == (expected, [])

    def test_paper_fragment(self):
        certification_authorities = _section(
            "1.3.1",
            "Certification authorities",
            PolicyOption("Issues certificates to end users"),
            PolicyOption("Issues certificates to other users"),
            children=(_section("1.3.1.1", "Root authorities", PolicyOption("Specifies the difference to the CAs")),),
        )
        participants = _section(
            "1.3",
            "PKI participants",
            comments=("//Described in the subsections",),
            children=(
                certification_authorities,
                _section("1.3.2", "Registration authorities"),
                _section("1.3.3", "Subscribers"),
                _section("1.3.4", ". . ."),
            ),
        )
        naming = _section(
            "1.2",
            "Document name and identification",
            PolicyOption("Document name", RECOMMENDED),
            PolicyOption("Designated identification", MUST),
            connective=AND,
        )
        overview = _section("1.1", "Overview", comments=("//Gives an overview about the document",))
        expected = _policy(_section("1", "INTRODUCTION", children=(overview, naming, participants)), name="fragment")
        assert parse_policy(PAPER_FRAGMENT, name="fragment") == (expected, [])


class TestHeadingParsing:
    test_weight_defaults_to_one = _document("1 OVERVIEW\n", _one("OVERVIEW"), [])
    test_trailing_integer_is_weight = _document("1 SECTION 508 4\n", _one("SECTION 508", weight=4), [])
    test_all_digit_title_without_weight = _document("1 2024\n", _one("2024"), [])
    test_indentation_is_ignored = _document(
        "1 TOP\n    1.1 Indented child\n", _one("TOP", children=(_section("1.1", "Indented child"),)), []
    )
    test_gaps_in_numbering_allowed = _document(
        "1 FIRST\n3 THIRD\n", _policy(_section("1", "FIRST"), _section("3", "THIRD")), []
    )
    test_blank_lines_and_crlf = _document(
        "1 TOP\r\n\r\na) MUST do it\r\n", _one("TOP", PolicyOption("do it", MUST)), []
    )

    @pytest.mark.parametrize(
        "text, path, title, weight",
        [
            ("1 \u00a0TITLE\n", "1", "TITLE", 1),
            ("1 TITLE\u00a0 2\n", "1", "TITLE", 2),
            ("1 TOP\n1.1 Scope\u2003 3\n", "1.1", "Scope", 3),
            ("1\u00a0TOP\u001f4\n", "1", "TOP", 4),
        ],
    )
    def test_unicode_whitespace_separates_number_title_and_weight(self, text, path, title, weight):
        policy, _ = parse_ok(text)
        paragraph = find(policy, path)
        assert (paragraph.title, paragraph.weight) == (title, weight)
        reparsed, diagnostics = parse_policy(render_policy(policy), name="P")
        assert diagnostics == []
        assert policy.roots == reparsed.roots

    @pytest.mark.parametrize(
        "line, title, weight",
        [
            ("1 6", "6", 1),
            ("1 5 6", "5", 6),
            ("1 A 5 6", "A 5", 6),
            ("1 A\t\u3000007", "A", 7),
            ("1 A 5X", "A 5X", 1),
            ("1 A 5.5", "A 5.5", 1),
        ],
    )
    def test_last_token_of_ascii_digits_is_the_weight(self, line, title, weight):
        assert parse_policy(line + "\n", name="P") == (_one(title, weight=weight), [])

    # U+0663 ARABIC-INDIC DIGIT THREE: title and phrase text, never a number.
    test_unicode_digits_are_not_section_numbers = _document(
        "1 TOP \u0663\n\u0663 hours\n", _one("TOP \u0663", PolicyOption("\u0663 hours")), []
    )


class TestOptionParsing:
    test_all_keywords_recognized = _document(
        "1 T\na) MUST w\nb) RECOMMENDED x\nc) OPTIONAL y\nd) NOT z\n",
        _one(
            "T",
            PolicyOption("w", MUST),
            PolicyOption("x", RECOMMENDED),
            PolicyOption("y", OPTIONAL),
            PolicyOption("z", NOT),
        ),
        [],
    )
    test_uppercase_label_warns_and_is_lowercased = _document(
        "1 T\nA) MUST x\n", _one("T", PolicyOption("x", MUST)), [_bad_label("A")]
    )
    test_lowercased_label_collides_with_lower_case_label = _document(
        "1 T\nA) x\na) y\n", None, [_bad_label("A"), _duplicate_label("a")]
    )
    test_unicode_phrases_survive = _document(
        "1 T\na) MUST archivage sécurisé\n", _one("T", PolicyOption("archivage sécurisé", MUST)), []
    )


class TestConnectionParsing:
    test_connection_or = _document("1 T\na) x\nConnection OR\n", _one("T", PolicyOption("x"), connective=OR), [])
    test_duplicate_connection_warns_last_wins = _document(
        "1 T\nConnection AND\nConnection OR\n",
        _one("T", connective=OR),
        [_warning("DUPLICATE_CONNECTIVE", 3, "paragraph already declares a connective; the last one wins")],
    )
    test_labeled_option_may_start_with_connection_word = _document(
        "1 T\na) connection reuse is allowed\n", _one("T", PolicyOption("connection reuse is allowed")), []
    )
    test_colon_after_connection_makes_an_option = _document(
        "1 INTRO\nConnection: AND\n",
        _intro(PolicyOption("Connection: AND")),
        [
            _warning(
                "CONNECTION_LOOKALIKE",
                2,
                "option starts with 'Connection:', read as phrase text, not as a Connection line",
            )
        ],
    )


# (line, codes, outcome): the diagnostics the line draws under ``1 INTRO``,
# and the policy it makes, or None.
LINES = [
    # "c" or "C": a connection line only when the first word is "connection".
    ("cache MUST rotate", [], _intro(PolicyOption("cache MUST rotate"))),
    ("Connections AND", [], _intro(PolicyOption("Connections AND"))),
    ("Connection AND", [], _intro(connective=AND)),
    ("connection  or", [], _intro(connective=OR)),
    ("Connection XOR", [_bad_connective(2)], None),
    ("CONNECTION", [_bad_connective(2)], None),
    ("C) x", [_bad_label("C")], _intro(PolicyOption("x"))),
    ("c) connection", [], _intro(PolicyOption("connection"))),
    # Labels and keywords.
    ("a)MUST x", [], _intro(PolicyOption("x", MUST))),
    ("Z)NOT x", [_bad_label("Z")], _intro(PolicyOption("x", NOT))),
    ("a) \u00a0MUST x", [], _intro(PolicyOption("x", MUST))),
    ("a) MUST\u00a0x", [], _intro(PolicyOption("MUST\u00a0x"))),
    ("a) MUST", [_EMPTY_PHRASE], None),
    ("a)", [_EMPTY_PHRASE], None),
    ("MUST", [_EMPTY_PHRASE], None),
    ("MUST\tx", [], _intro(PolicyOption("MUST\tx"))),
    ("MUST  x", [], _intro(PolicyOption("x", MUST))),
    (
        "must x",
        [_warning("KEYWORD_LOOKALIKE", 2, "option starts with 'must', read as phrase text, not as a keyword")],
        _intro(PolicyOption("must x")),
    ),
    ("\u00e9) x", [], _intro(PolicyOption("\u00e9) x"))),
    # Digits and dots: headings, heading-like options, plain options.
    ("2 NEXT", [], _policy(_section("1", "INTRO"), _section("2", "NEXT"))),
    ("1..2 foo", [_heading_like("1..2")], _intro(PolicyOption("1..2 foo"))),
    (".5 foo", [_heading_like(".5")], _intro(PolicyOption(".5 foo"))),
    ("1.2", [_heading_like("1.2")], _intro(PolicyOption("1.2"))),
    ("3x", [], _intro(PolicyOption("3x"))),
    ("1)x", [], _intro(PolicyOption("1)x"))),
    # Slashes: a comment needs two.
    ("/etc/passwd", [], _intro(PolicyOption("/etc/passwd"))),
    ("/", [], _intro(PolicyOption("/"))),
    ("// note", [], _intro(comments=("// note",))),
    ("x\u00a0y", [], _intro(PolicyOption("x\u00a0y"))),
    # Labels of more than one letter.
    ("ab) x", [], _intro(PolicyOption("x"))),
    ("Ab) x", [_bad_label("Ab")], _intro(PolicyOption("x"))),
    ("ab) MUST x", [], _intro(PolicyOption("x", MUST))),
    ("ab)c) x", [], _intro(PolicyOption("c) x"))),
    ("a1) x", [], _intro(PolicyOption("a1) x"))),
    ("a\u00e9) x", [], _intro(PolicyOption("a\u00e9) x"))),
    (") x", [], _intro(PolicyOption(") x"))),
    ("aa) x\naa) y", [_duplicate_label("aa")], None),
    ("etc) x", [], _intro(PolicyOption("x"))),
    ("MUST) x", [_bad_label("MUST")], _intro(PolicyOption("x"))),
    # The edges of the option grammar: where a keyword ends, which
    # whitespace is skipped, what counts as a label.
    ("a) NOT", [_EMPTY_PHRASE], None),
    ("a) MUST ", [_EMPTY_PHRASE], None),
    # Only a plain space ends a keyword; once it has, any whitespace goes.
    ("a) MUST\tkeep logs", [], _intro(PolicyOption("MUST\tkeep logs"))),
    ("a)  MUST keep logs", [], _intro(PolicyOption("keep logs", MUST))),
    ("a) MUST  keep logs", [], _intro(PolicyOption("keep logs", MUST))),
    ("a) MUST MUST keep", [], _intro(PolicyOption("MUST keep", MUST))),
    ("a) MUSTER keep logs", [], _intro(PolicyOption("MUSTER keep logs"))),
    ("ab) NOT keep logs", [], _intro(PolicyOption("keep logs", NOT))),
    ("keep logs", [], _intro(PolicyOption("keep logs"))),
    ("OPTIONAL keep", [], _intro(PolicyOption("keep", OPTIONAL))),
    ("A) keep logs", [_bad_label("A")], _intro(PolicyOption("keep logs"))),
    ("a) keep logs\na) rotate keys", [_duplicate_label("a")], None),
    # A label is ASCII letters; anything else before ")" is phrase text.
    ("\u00e9) keep logs", [], _intro(PolicyOption("\u00e9) keep logs"))),
    ("a1) keep logs", [], _intro(PolicyOption("a1) keep logs"))),
    ("1.2. keep", [_heading_like("1.2.")], _intro(PolicyOption("1.2. keep"))),
    # U+00A0 and U+3000 are whitespace to strip() but do not end a keyword.
    ("a) MUST\u00a0keep logs", [], _intro(PolicyOption("MUST\u00a0keep logs"))),
    ("a) MUST\u3000keep logs", [], _intro(PolicyOption("MUST\u3000keep logs"))),
    ("a) MUST \u00a0keep logs", [], _intro(PolicyOption("keep logs", MUST))),
    ("a) MUST keep\u00a0logs", [], _intro(PolicyOption("keep\u00a0logs", MUST))),
    ("MUST\u3000keep logs", [], _intro(PolicyOption("MUST\u3000keep logs"))),
    (
        "a) MUST NOT share keys",
        [_warning("KEYWORD_LOOKALIKE", 2, "'MUST NOT' is read as keyword MUST and a phrase starting with 'NOT'")],
        _intro(PolicyOption("NOT share keys", MUST)),
    ),
]
DOCUMENTS.extend((f"1 INTRO\n{line}\n", outcome, codes) for line, codes, outcome in LINES)


class TestLineDispatch:
    """What one line (or two, for a duplicate label) under ``1 INTRO``
    becomes, for each first-character branch of the dispatch and each edge
    of the option grammar: every diagnostic, with its code, line and
    message, and the policy."""

    @pytest.mark.parametrize("line, codes, outcome", LINES)
    def test_line(self, line, codes, outcome):
        assert parse_policy(f"1 INTRO\n{line}\n", name="P") == (outcome, codes)


def _lookalike_warnings(keyword, phrase):
    """The warning FORMAT.md gives an option read as ``keyword`` (a name or
    None) and ``phrase`` when it starts with an RFC 2119 look-alike: a list
    of none or one."""
    first = phrase.split(" ", 1)[0]
    if keyword == "MUST" and first == "NOT":
        message = "'MUST NOT' is read as keyword MUST and a phrase starting with 'NOT'"
        return [_warning("KEYWORD_LOOKALIKE", 2, message)]
    if keyword is None and (
        first in ("SHALL", "SHOULD", "MAY", "REQUIRED")
        or re.fullmatch(r"(MUST|RECOMMENDED|OPTIONAL|NOT):?", first.upper())
    ):
        message = f"option starts with {first!r}, read as phrase text, not as a keyword"
        return [_warning("KEYWORD_LOOKALIKE", 2, message)]
    if keyword is None and first.lower().startswith("connection:"):
        message = f"option starts with {first!r}, read as phrase text, not as a Connection line"
        return [_warning("CONNECTION_LOOKALIKE", 2, message)]
    return []


def _cases(word: str) -> st.SearchStrategy[str]:
    """``word`` with each of its letters in either case."""
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if up else c.lower() for c, up in zip(word, upper))
    )


_KEYWORD_NAMES = tuple(Keyword.__members__)

# (first token of the option, the warning it draws): the other RFC 2119
# terms, a keyword in another case or with a trailing colon, MUST NOT, and a
# colon after "connection".
_LOOKALIKE_HEADS = st.one_of(
    st.tuples(st.sampled_from(("SHALL", "SHOULD", "MAY", "REQUIRED")), st.just("KEYWORD_LOOKALIKE")),
    st.tuples(
        st.sampled_from(_KEYWORD_NAMES).flatmap(lambda k: _cases(k).filter(lambda w: w != k)),
        st.just("KEYWORD_LOOKALIKE"),
    ),
    st.tuples(
        st.sampled_from(_KEYWORD_NAMES).flatmap(_cases).map(lambda w: w + ":"),
        st.just("KEYWORD_LOOKALIKE"),
    ),
    st.tuples(st.sampled_from(("MUST NOT", "MUST  NOT")), st.just("KEYWORD_LOOKALIKE")),
    st.tuples(_cases("connection").map(lambda w: w + ":"), st.just("CONNECTION_LOOKALIKE")),
)
_LOOKALIKE_LINES = st.tuples(
    st.sampled_from(("", "a) ", "b)", "C) ")),
    _LOOKALIKE_HEADS,
    st.sampled_from(("", " keep logs", " AND")),
)


def _is_option_line(line: str) -> bool:
    """Whether FORMAT.md reads the stripped ``line`` as an option: it is not
    blank, a comment, a heading or a connection line."""
    return bool(line) and not (
        line.startswith("//")
        or re.match(r"[0-9]+(?:\.[0-9]+)*\s+\S", line)
        or line.split()[0].lower() == "connection"
    )


class TestOptionLineEdges:
    """Every option line of the soups, and every look-alike line, read
    against the ``[label) ][KEYWORD ]phrase`` grammar's own regular
    expression."""

    @settings(max_examples=1000, deadline=None)
    @given(line=_soup_lines())
    def test_option_lines_read_as_the_grammar_says(self, line):
        stripped = line.strip()
        assume(_is_option_line(stripped))
        label, keyword, phrase = oracle_option_line(stripped)
        expected = []
        token = stripped.split()[0]
        # A first token of digits and dots, with at least one of each.
        if re.fullmatch(r"[0-9.]*[0-9][0-9.]*", token) and "." in token:
            expected.append(_heading_like(token))
        if label is not None and label != label.lower():
            expected.append(_bad_label(label))
        expected += _lookalike_warnings(keyword, phrase)
        if phrase:
            policy = _one("INTRO", PolicyOption(phrase, keyword and Keyword[keyword]))
        else:
            policy = None
            expected.append(_EMPTY_PHRASE)
        assert parse_policy(f"1 INTRO\n{line}\n", name="P") == (policy, expected)

    @settings(max_examples=1000, deadline=None)
    @given(parts=_LOOKALIKE_LINES)
    def test_lookalike_lines_warn_and_read_as_the_grammar_says(self, parts):
        label_text, (head, code), tail = parts
        line = label_text + head + tail
        _, keyword, phrase = oracle_option_line(line)
        policy, diagnostics = parse_policy(f"1 INTRO\n{line}\n", name="P")
        assert policy == _one("INTRO", PolicyOption(phrase, keyword and Keyword[keyword]))
        assert [d.code for d in diagnostics if d.code != "BAD_OPTION_LABEL"] == [code]
        assert diagnostics[-1:] == _lookalike_warnings(keyword, phrase)


class TestParsingNeverRaises:
    @settings(max_examples=1000, deadline=None)
    @given(text=line_soups())
    def test_line_soups(self, text):
        policy, diagnostics = parse_policy(text, name="soup")
        has_error = any(d.severity is Severity.ERROR for d in diagnostics)
        assert (policy is None) == has_error
        if policy is not None:
            reparsed, _ = parse_policy(render_policy(policy), name="soup")
            assert reparsed is not None
            assert policy.roots == reparsed.roots


class TestWarnings:
    test_depth_beyond_four_warns_but_parses = _document(
        "1 A\n1.1 B\n1.1.1 C\n1.1.1.1 D\n1.1.1.1.1 E\n",
        _one("A", children=(_section("1.1", "B", children=(_section("1.1.1", "C", children=(
            _section("1.1.1.1", "D", children=(_section("1.1.1.1.1", "E"),)),)),)),)),
        [_warning("DEPTH_EXCEEDS_4", 5, "section 1.1.1.1.1 is nested deeper than the standard four levels")],
    )
    test_lowercase_main_section_warns = _document(
        "1 Introduction\n",
        _one("Introduction"),
        [_warning("MAIN_SECTION_NOT_CAPS", 1, "main section title 'Introduction' is not upper case")],
    )
    test_subsection_titles_need_not_be_caps = _document(
        "1 TOP\n1.1 Mixed case here\n", _one("TOP", children=(_section("1.1", "Mixed case here"),)), []
    )
    test_comment_before_any_section_is_dropped = _document(
        "// stray remark\n1 TOP\n",
        _one("TOP"),
        [_warning("COMMENT_BEFORE_SECTION", 1, "comment before the first section heading is dropped")],
    )


class TestErrors:
    test_duplicate_section = _document("1 TOP\n1 AGAIN\n", None, [_DUPLICATE_1])
    test_orphan_section = _document(
        "1 TOP\n1.2.1 Skipped a level\n",
        None,
        [_error("ORPHAN_SECTION", 2, "section 1.2.1 has no parent section 1.2")],
    )
    # An orphan is still opened, so its children draw no error of their own.
    test_orphan_children_do_not_cascade = _document(
        "1 TOP\n1.2.1 Orphan\n1.2.1.1 Child of orphan\n",
        None,
        [_error("ORPHAN_SECTION", 2, "section 1.2.1 has no parent section 1.2")],
    )
    test_root_out_of_order = _document("2 SECOND\n1 FIRST\n", None, [_out_of_order("1", 2)])
    test_sibling_out_of_order = _document("1 TOP\n1.2 B\n1.1 A\n", None, [_out_of_order("1.1", 3)])
    # A section is checked against its last linked sibling, so one that drew
    # an error does not move the bar for the sections after it.
    test_sibling_order_reads_the_last_linked_sibling = _documents(
        ("1 TOP\n1.3 C\n1.1 A\n1.2 B\n", None, [_out_of_order("1.1", 3), _out_of_order("1.2", 4)]),
        ("1 TOP\n1.2 B\n1.1 A\n1.3 C\n", None, [_out_of_order("1.1", 3)]),
        (
            "1 TOP\n1.2 B\n1.2 B\n1.3 C\n1.1.1 X\n",
            None,
            [
                _error("DUPLICATE_SECTION", 3, "section 1.2 already defined"),
                _error("ORPHAN_SECTION", 5, "section 1.1.1 has no parent section 1.1"),
            ],
        ),
        ids=["after-later-sibling", "after-unlinked-sibling", "after-duplicate"],
    )
    test_section_after_later_sibling_closed = _document(
        "1 TOP\n2 NEXT\n1.1 Late child\n",
        None,
        [_error("SECTION_OUT_OF_ORDER", 3, "section 1.1 appears after its parent was closed")],
    )
    test_zero_segment_rejected = _document(
        "0 TOP\n", None, [_error("BAD_SECTION_NUMBER", 1, "section number 0 contains a zero segment")]
    )
    test_zero_inner_segment_rejected = _document(
        "1 TOP\n1.0 Sub\n", None, [_error("BAD_SECTION_NUMBER", 2, "section number 1.0 contains a zero segment")]
    )
    test_zero_weight_rejected = _document(
        "1 TOP 0\n", None, [_error("BAD_WEIGHT", 1, "paragraph weight must be positive")]
    )
    test_heading_past_the_depth_limit = _document(
        ".".join("1" * 101) + " DEEP\n",
        None,
        [_error("DEPTH_LIMIT", 1, "section number has 101 segments, more than 100")],
    )

    # CPython's int() refuses strings of more than 4300 digits by default.
    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("1" * 4301 + " T", "BAD_SECTION_NUMBER", "section number has too many digits"),
            ("1 T " + "1" * 4301, "BAD_WEIGHT", "paragraph weight has too many digits"),
            ("1." + "2" * 4301 + " T", "BAD_SECTION_NUMBER", "section number has too many digits"),
        ],
        ids=["section", "weight", "inner-segment"],
    )
    def test_numbers_too_long_to_convert_rejected(self, text, code, message):
        assert parse_policy(text) == (None, [_error(code, 1, message)])

    def test_depth_limit(self):
        policy, diagnostics = parse_policy(chain_text(MAX_DEPTH))
        assert policy is not None
        assert {d.code for d in diagnostics} == {"DEPTH_EXCEEDS_4"}
        policy, diagnostics = parse_policy(chain_text(MAX_DEPTH + 1))
        assert policy is None
        message = f"section number has {MAX_DEPTH + 1} segments, more than {MAX_DEPTH}"
        assert [d for d in diagnostics if d.severity is Severity.ERROR] == [
            _error("DEPTH_LIMIT", MAX_DEPTH + 1, message)
        ]
        assert diagnostics[-1].line == MAX_DEPTH + 1

    def test_far_past_depth_limit_does_not_raise(self):
        policy, diagnostics = parse_policy(chain_text(600))
        assert policy is None
        errors = [d.code for d in diagnostics if d.severity is Severity.ERROR]
        assert errors == ["DEPTH_LIMIT"] * (600 - MAX_DEPTH)


    test_option_before_any_section = _document(
        "a) keep logs\n1 INTRO\n",
        None,
        [_error("OPTION_BEFORE_SECTION", 1, "option line before the first section heading")],
    )
    test_connection_with_extra_tokens_rejected = _document("1 TOP\nConnection AND OR\n", None, [_bad_connective(2)])
    test_connection_before_any_section = _document(
        "Connection AND\n1 TOP\n",
        None,
        [_error("CONNECTION_BEFORE_SECTION", 1, "Connection line before the first section heading")],
    )
    # Every error is reported, not only the first.
    test_multiple_errors_all_reported = _document(
        "1 TOP 0\n1 TOP\nConnection MAYBE\n",
        None,
        [_error("BAD_WEIGHT", 1, "paragraph weight must be positive"), _DUPLICATE_1, _bad_connective(3)],
    )
    test_diagnostics_carry_line_numbers = _document("1 TOP\n\n// fine\nConnection BOTH\n", None, [_bad_connective(4)])

    def test_diagnostic_message_is_readable(self):
        _, diagnostics = parse_policy("1 TOP\n1 TOP\n")
        assert [str(d) for d in diagnostics] == ["line 2: ERROR DUPLICATE_SECTION: section 1 already defined"]


class TestEmptyInput:
    test_empty_text = _document("", _policy(), [])
    test_whitespace_only = _document("  \n\n\t\n", _policy(), [])


def _rendered(text, rendered):
    """A test that the policy ``text`` parses to renders as exactly
    ``rendered``, which parses back to the same tree with no diagnostics."""

    def test(self):
        policy, _ = parse_policy(text, name="P")
        assert (render_policy(policy), parse_policy(rendered, name="P")) == (rendered, (policy, []))

    return test


class TestRendering:
    def test_golden_document_round_trips(self, sample_policy_text):
        policy, _ = parse_ok(sample_policy_text, name="sample")
        rendered = render_policy(policy)
        reparsed, diagnostics = parse_policy(rendered, name="sample")
        assert diagnostics == []
        assert policy.roots == reparsed.roots

    test_render_synthesizes_labels = _rendered(
        "1 TOP\nMUST first\nsecond thing\n", "1 TOP\na) MUST first\nb) second thing\n"
    )
    test_render_relabels_sequentially = _rendered("1 TOP\nc) MUST x\nd) MUST y\n", "1 TOP\na) MUST x\nb) MUST y\n")
    test_default_weight_is_omitted = _rendered("1 TOP 1\n", "1 TOP\n")
    test_non_default_weight_is_emitted = _rendered("1 TOP 3\n", "1 TOP 3\n")
    # Without the explicit weight the reparse would read the title's last
    # token as the weight.
    test_digit_final_title_keeps_explicit_weight = _rendered("1 SECTION 508 1\n", "1 SECTION 508 1\n")
    test_all_digit_title_round_trips = _rendered("1 2024\n", "1 2024 1\n")
    test_connection_rendered_only_when_declared = _rendered(
        "1 TOP\na) x\nConnection OR\n2 NEXT\na) y\n", "1 TOP\na) x\nConnection OR\n2 NEXT\na) y\n"
    )
    # Comments come right after their heading.
    test_comments_are_preserved = _rendered(
        "1 TOP\n// keep me\na) x\n// me too\n", "1 TOP\n// keep me\n// me too\na) x\n"
    )

    def test_labels_run_past_z(self, paragraph_factory, policy_factory):
        options = tuple(PolicyOption(phrase=f"item {i}") for i in range(703))
        policy = policy_factory("big", paragraph_factory("1", title="BIG", options=options))
        rendered = render_policy(policy)
        labels = [line.partition(")")[0] for line in rendered.splitlines()[1:]]
        assert [labels[i] for i in (0, 25, 26, 701, 702)] == ["a", "z", "aa", "zz", "aaa"]
        reparsed, diagnostics = parse_policy(rendered, name="big")
        assert diagnostics == []
        assert policy.roots == reparsed.roots

    @settings(max_examples=1000, deadline=None)
    @given(policy=policies())
    def test_random_policies_round_trip(self, policy):
        rendered = render_policy(policy)
        reparsed, diagnostics = parse_policy(rendered, name=policy.name)
        assert not [d for d in diagnostics if d.severity is Severity.ERROR]
        assert reparsed is not None
        assert policy.roots == reparsed.roots
