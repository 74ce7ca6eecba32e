"""Tests for the policy text parser and renderer."""

from __future__ import annotations

import re

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
from strategies import _soup_lines, chain_text, hostile_policies, line_soups


def parse_ok(text: str, name: str = "P"):
    """Parse text that is expected to produce a policy (warnings allowed)."""
    policy, diagnostics = parse_policy(text, name=name)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    assert not errors, errors
    assert policy is not None
    return policy, diagnostics


def error_codes(diagnostics):
    return [d.code for d in diagnostics if d.severity is Severity.ERROR]


def warning_codes(diagnostics):
    return [d.code for d in diagnostics if d.severity is Severity.WARNING]


# The sample fragment of the source paper.
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
    def test_parses_without_diagnostics(self, sample_policy_text):
        policy, diagnostics = parse_policy(sample_policy_text, name="sample")
        assert diagnostics == []
        assert policy is not None
        assert policy.name == "sample"

    def test_root_structure(self, sample_policy_text):
        policy, _ = parse_ok(sample_policy_text)
        assert [p.path.dotted for p in policy.roots] == ["1", "2"]
        intro = policy.roots[0]
        assert intro.title == "INTRODUCTION"
        assert intro.weight == 3
        assert intro.comments == ("// Scope of the document",)
        assert [c.path.dotted for c in intro.children] == ["1.1", "1.2", "1.3"]

    def test_option_details(self, sample_policy_text):
        policy, _ = parse_ok(sample_policy_text)
        overview = find(policy, "1.1")
        assert overview.title == "Overview"
        assert overview.weight == 2
        assert [(o.keyword, o.phrase) for o in overview.options] == [
            (Keyword.MUST, "provide an overview"),
            (Keyword.RECOMMENDED, "include a diagram"),
        ]

    def test_connection_line(self, sample_policy_text):
        policy, _ = parse_ok(sample_policy_text)
        naming = find(policy, "1.2")
        assert naming.connective is Connective.AND
        # Paragraphs without a Connection line carry no declared connective.
        assert find(policy, "1.1").connective is Connective.NONE

    def test_nesting_to_depth_four(self, sample_policy_text):
        policy, _ = parse_ok(sample_policy_text)
        deep = find(policy, "1.3.1.1")
        assert deep is not None
        assert len(deep.path.segments) == 4
        assert deep.title == "Root Authorities"
        assert [o.phrase for o in deep.options] == ["operate offline"]

    def test_walk_order_is_document_order(self, sample_policy_text):
        policy, _ = parse_ok(sample_policy_text)
        assert [p.path.dotted for p in policy.walk()] == [
            "1",
            "1.1",
            "1.2",
            "1.3",
            "1.3.1",
            "1.3.1.1",
            "2",
        ]

    def test_paper_fragment(self):
        # Comments written without a space, a title that is an ellipsis,
        # nesting to the fourth level and a connective on section 1.2.
        policy, diagnostics = parse_policy(PAPER_FRAGMENT, name="fragment")
        assert diagnostics == []
        assert [p.path.dotted for p in policy.walk()] == [
            "1", "1.1", "1.2", "1.3", "1.3.1", "1.3.1.1", "1.3.2", "1.3.3", "1.3.4",
        ]
        assert find(policy, "1.2").connective is Connective.AND


class TestHeadingParsing:
    def test_weight_defaults_to_one(self):
        policy, _ = parse_ok("1 OVERVIEW\n")
        assert policy.roots[0].weight == 1

    def test_trailing_integer_is_weight(self):
        policy, _ = parse_ok("1 SECTION 508 4\n")
        assert policy.roots[0].title == "SECTION 508"
        assert policy.roots[0].weight == 4

    def test_all_digit_title_without_weight(self):
        policy, warnings = parse_policy("1 2024\n")
        assert policy.roots[0].title == "2024"
        assert policy.roots[0].weight == 1

    def test_indentation_is_ignored(self):
        policy, _ = parse_ok("1 TOP\n    1.1 Indented child\n")
        assert policy.roots[0].children[0].title == "Indented child"

    def test_gaps_in_numbering_allowed(self):
        policy, diagnostics = parse_ok("1 FIRST\n3 THIRD\n")
        assert [p.path.dotted for p in policy.roots] == ["1", "3"]
        assert diagnostics == []

    def test_blank_lines_and_crlf(self):
        policy, _ = parse_ok("1 TOP\r\n\r\na) MUST do it\r\n")
        assert policy.roots[0].options[0].phrase == "do it"

    @pytest.mark.parametrize(
        "text, path, title, weight",
        [
            ("1 \u00a0TITLE\n", "1", "TITLE", 1),
            ("1 TITLE\u00a0 2\n", "1", "TITLE", 2),
            ("1 TOP\n1.1 Scope\u2003 3\n", "1.1", "Scope", 3),
            ("1\u00a0TOP\u001f4\n", "1", "TOP", 4),
        ],
    )
    def test_unicode_whitespace_separates_number_title_and_weight(
        self, text, path, title, weight
    ):
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
        policy, diagnostics = parse_policy(line + "\n")
        assert diagnostics == []
        assert (policy.roots[0].title, policy.roots[0].weight) == (title, weight)

    def test_unicode_digits_are_not_section_numbers(self):
        # U+0663 ARABIC-INDIC DIGIT THREE: a title word, never a number.
        policy, _ = parse_ok("1 TOP \u0663\n\u0663 hours\n")
        assert (policy.roots[0].title, policy.roots[0].weight) == ("TOP \u0663", 1)
        assert policy.roots[0].options[0].phrase == "\u0663 hours"


class TestOptionParsing:
    def test_unlabeled_option_with_keyword(self):
        policy, _ = parse_ok("1 T\nMUST do x\n")
        option = policy.roots[0].options[0]
        assert (option.keyword, option.phrase) == (Keyword.MUST, "do x")

    def test_bare_phrase_option(self):
        policy, _ = parse_ok("1 T\nplain phrase here\n")
        option = policy.roots[0].options[0]
        assert (option.keyword, option.phrase) == (None, "plain phrase here")

    def test_keyword_matching_is_case_sensitive(self):
        policy, _ = parse_ok("1 T\nmust do x\n")
        option = policy.roots[0].options[0]
        assert option.keyword is None
        assert option.phrase == "must do x"

    def test_all_keywords_recognized(self):
        text = "1 T\na) MUST w\nb) RECOMMENDED x\nc) OPTIONAL y\nd) NOT z\n"
        policy, _ = parse_ok(text)
        assert [o.keyword for o in policy.roots[0].options] == [
            Keyword.MUST,
            Keyword.RECOMMENDED,
            Keyword.OPTIONAL,
            Keyword.NOT,
        ]

    def test_label_without_space_before_phrase(self):
        policy, _ = parse_ok("1 T\na)MUST x\n")
        option = policy.roots[0].options[0]
        assert (option.keyword, option.phrase) == (Keyword.MUST, "x")

    def test_uppercase_label_warns_and_is_lowercased(self):
        policy, diagnostics = parse_policy("1 T\nA) MUST x\n")
        assert warning_codes(diagnostics) == ["BAD_OPTION_LABEL"]
        option = policy.roots[0].options[0]
        assert (option.keyword, option.phrase) == (Keyword.MUST, "x")

    def test_lowercased_label_collides_with_lower_case_label(self):
        policy, diagnostics = parse_policy("1 T\nA) x\na) y\n")
        assert policy is None
        assert warning_codes(diagnostics) == ["BAD_OPTION_LABEL"]
        assert error_codes(diagnostics) == ["DUPLICATE_OPTION_LABEL"]

    def test_unicode_phrases_survive(self):
        policy, _ = parse_ok("1 T\na) MUST archivage sécurisé\n")
        assert policy.roots[0].options[0].phrase == "archivage sécurisé"


class TestConnectionParsing:
    def test_connection_or(self):
        policy, _ = parse_ok("1 T\na) x\nConnection OR\n")
        assert policy.roots[0].connective is Connective.OR

    def test_connection_is_case_insensitive(self):
        policy, _ = parse_ok("1 T\nconnection and\n")
        assert policy.roots[0].connective is Connective.AND

    def test_duplicate_connection_warns_last_wins(self):
        policy, diagnostics = parse_policy("1 T\nConnection AND\nConnection OR\n")
        assert warning_codes(diagnostics) == ["DUPLICATE_CONNECTIVE"]
        assert policy.roots[0].connective is Connective.OR

    def test_labeled_option_may_start_with_connection_word(self):
        policy, _ = parse_ok("1 T\na) connection reuse is allowed\n")
        assert policy.roots[0].options[0].phrase == "connection reuse is allowed"


def _option(keyword, phrase):
    return [(keyword, phrase)], Connective.NONE, (), 1


def _connection(connective):
    return [], connective, (), 1


class TestLineDispatch:
    """What one line (or two, for a duplicate label) under ``1 INTRO``
    becomes, for each first-character branch of the dispatch and its edges.
    ``None`` means no policy."""

    @pytest.mark.parametrize(
        "line, codes, outcome",
        [
            # "c" or "C": a connection line only when the first word is "connection".
            ("cache MUST rotate", [], _option(None, "cache MUST rotate")),
            ("Connections AND", [], _option(None, "Connections AND")),
            ("Connection AND", [], _connection(Connective.AND)),
            ("connection  or", [], _connection(Connective.OR)),
            ("Connection XOR", ["BAD_CONNECTIVE"], None),
            ("CONNECTION", ["BAD_CONNECTIVE"], None),
            ("C) x", ["BAD_OPTION_LABEL"], _option(None, "x")),
            ("c) connection", [], _option(None, "connection")),
            # Labels and keywords.
            ("a)MUST x", [], _option(Keyword.MUST, "x")),
            ("Z)NOT x", ["BAD_OPTION_LABEL"], _option(Keyword.NOT, "x")),
            ("a) \u00a0MUST x", [], _option(Keyword.MUST, "x")),
            ("a) MUST\u00a0x", [], _option(None, "MUST\u00a0x")),
            ("a) MUST", ["EMPTY_OPTION_PHRASE"], None),
            ("a)", ["EMPTY_OPTION_PHRASE"], None),
            ("MUST", ["EMPTY_OPTION_PHRASE"], None),
            ("MUST\tx", [], _option(None, "MUST\tx")),
            ("MUST  x", [], _option(Keyword.MUST, "x")),
            ("must x", ["KEYWORD_LOOKALIKE"], _option(None, "must x")),
            ("\u00e9) x", [], _option(None, "\u00e9) x")),
            # Digits and dots: headings, heading-like options, plain options.
            ("2 NEXT", [], ([], Connective.NONE, (), 2)),
            ("1..2 foo", ["HEADING_LIKE_OPTION"], _option(None, "1..2 foo")),
            (".5 foo", ["HEADING_LIKE_OPTION"], _option(None, ".5 foo")),
            ("1.2", ["HEADING_LIKE_OPTION"], _option(None, "1.2")),
            ("3x", [], _option(None, "3x")),
            ("1)x", [], _option(None, "1)x")),
            # Slashes: a comment needs two.
            ("/etc/passwd", [], _option(None, "/etc/passwd")),
            ("/", [], _option(None, "/")),
            ("// note", [], ([], Connective.NONE, ("// note",), 1)),
            ("x\u00a0y", [], _option(None, "x\u00a0y")),
            # Labels of more than one letter.
            ("ab) x", [], _option(None, "x")),
            ("Ab) x", ["BAD_OPTION_LABEL"], _option(None, "x")),
            ("ab) MUST x", [], _option(Keyword.MUST, "x")),
            ("ab)c) x", [], _option(None, "c) x")),
            ("a1) x", [], _option(None, "a1) x")),
            ("a\u00e9) x", [], _option(None, "a\u00e9) x")),
            (") x", [], _option(None, ") x")),
            ("aa) x\naa) y", ["DUPLICATE_OPTION_LABEL"], None),
            ("etc) x", [], _option(None, "x")),
            ("MUST) x", ["BAD_OPTION_LABEL"], _option(None, "x")),
        ],
    )
    def test_line(self, line, codes, outcome):
        policy, diagnostics = parse_policy(f"1 INTRO\n{line}\n")
        assert [d.code for d in diagnostics] == codes
        if outcome is None:
            assert policy is None
            return
        intro = policy.roots[0]
        assert (
            [(o.keyword, o.phrase) for o in intro.options],
            intro.connective,
            intro.comments,
            len(policy.roots),
        ) == outcome


def _intro(*options):
    """The one-section policy ``1 INTRO`` holding ``options``."""
    return Policy("P", (Paragraph(NumberPath((1,)), "INTRO", options=options),))


def _diagnostic(severity, code, line, message):
    return ParseDiagnostic(Severity[severity], code, line, message)


_EMPTY_PHRASE = _diagnostic("ERROR", "EMPTY_OPTION_PHRASE", 2, "option has no phrase text")


def _lookalike_warnings(keyword, phrase):
    """The warning FORMAT.md gives an option read as ``keyword`` (a name or
    None) and ``phrase`` when it starts with an RFC 2119 look-alike: a list
    of none or one."""
    first = phrase.split(" ", 1)[0]
    if keyword == "MUST" and first == "NOT":
        message = "'MUST NOT' is read as keyword MUST and a phrase starting with 'NOT'"
        return [_diagnostic("WARNING", "KEYWORD_LOOKALIKE", 2, message)]
    if keyword is None and (
        first in ("SHALL", "SHOULD", "MAY", "REQUIRED")
        or re.fullmatch(r"(MUST|RECOMMENDED|OPTIONAL|NOT):?", first.upper())
    ):
        message = f"option starts with {first!r}, read as phrase text, not as a keyword"
        return [_diagnostic("WARNING", "KEYWORD_LOOKALIKE", 2, message)]
    if keyword is None and first.lower().startswith("connection:"):
        message = f"option starts with {first!r}, read as phrase text, not as a Connection line"
        return [_diagnostic("WARNING", "CONNECTION_LOOKALIKE", 2, message)]
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
    """Whole documents around the ``[label) ][KEYWORD ]phrase`` line: the
    tree and every diagnostic, on the edges of the option grammar (where a
    keyword ends, which whitespace is skipped, what counts as a label) and
    of its diagnostics, and every option line of the soups read against the
    grammar's own regular expression."""

    @pytest.mark.parametrize(
        "text, policy, diagnostics",
        [
            ("1 INTRO\na) MUST\n", None, [_EMPTY_PHRASE]),
            ("1 INTRO\na) NOT\n", None, [_EMPTY_PHRASE]),
            ("1 INTRO\na) MUST \n", None, [_EMPTY_PHRASE]),
            # Only a plain space ends a keyword; once it has, any whitespace goes.
            ("1 INTRO\na) MUST\tkeep logs\n", _intro(PolicyOption("MUST\tkeep logs")), []),
            ("1 INTRO\na)  MUST keep logs\n", _intro(PolicyOption("keep logs", Keyword.MUST)), []),
            ("1 INTRO\na)MUST keep logs\n", _intro(PolicyOption("keep logs", Keyword.MUST)), []),
            ("1 INTRO\na) MUST  keep logs\n", _intro(PolicyOption("keep logs", Keyword.MUST)), []),
            ("1 INTRO\na) MUST MUST keep\n", _intro(PolicyOption("MUST keep", Keyword.MUST)), []),
            ("1 INTRO\na) MUSTER keep logs\n", _intro(PolicyOption("MUSTER keep logs")), []),
            ("1 INTRO\nab) NOT keep logs\n", _intro(PolicyOption("keep logs", Keyword.NOT)), []),
            ("1 INTRO\nkeep logs\n", _intro(PolicyOption("keep logs")), []),
            ("1 INTRO\nOPTIONAL keep\n", _intro(PolicyOption("keep", Keyword.OPTIONAL)), []),
            (
                "1 INTRO\nA) keep logs\n",
                _intro(PolicyOption("keep logs")),
                [_diagnostic("WARNING", "BAD_OPTION_LABEL", 2, "option label 'A' should be lower case")],
            ),
            (
                "1 INTRO\na) keep logs\na) rotate keys\n",
                None,
                [
                    _diagnostic(
                        "ERROR",
                        "DUPLICATE_OPTION_LABEL",
                        3,
                        "option label 'a' is already used in this paragraph",
                    )
                ],
            ),
            # A label is ASCII letters; anything else before ")" is phrase text.
            ("1 INTRO\n\u00e9) keep logs\n", _intro(PolicyOption("\u00e9) keep logs")), []),
            ("1 INTRO\na1) keep logs\n", _intro(PolicyOption("a1) keep logs")), []),
            (
                "1 INTRO\n1.2. keep\n",
                _intro(PolicyOption("1.2. keep")),
                [
                    _diagnostic(
                        "WARNING",
                        "HEADING_LIKE_OPTION",
                        2,
                        "option starts with '1.2.', which looks like a section number",
                    )
                ],
            ),
            (
                "a) keep logs\n1 INTRO\n",
                None,
                [
                    _diagnostic(
                        "ERROR",
                        "OPTION_BEFORE_SECTION",
                        1,
                        "option line before the first section heading",
                    )
                ],
            ),
            # U+00A0 and U+3000 are whitespace to strip() but do not end a keyword.
            ("1 INTRO\na) MUST\u00a0keep logs\n", _intro(PolicyOption("MUST\u00a0keep logs")), []),
            ("1 INTRO\na) MUST\u3000keep logs\n", _intro(PolicyOption("MUST\u3000keep logs")), []),
            (
                "1 INTRO\na) MUST \u00a0keep logs\n",
                _intro(PolicyOption("keep logs", Keyword.MUST)),
                [],
            ),
            (
                "1 INTRO\na) \u3000MUST keep logs\n",
                _intro(PolicyOption("keep logs", Keyword.MUST)),
                [],
            ),
            (
                "1 INTRO\na) MUST keep\u00a0logs\n",
                _intro(PolicyOption("keep\u00a0logs", Keyword.MUST)),
                [],
            ),
            ("1 INTRO\nMUST\u3000keep logs\n", _intro(PolicyOption("MUST\u3000keep logs")), []),
            (
                "1 INTRO\na) MUST NOT share keys\n",
                _intro(PolicyOption("NOT share keys", Keyword.MUST)),
                [
                    _diagnostic(
                        "WARNING",
                        "KEYWORD_LOOKALIKE",
                        2,
                        "'MUST NOT' is read as keyword MUST and a phrase starting with 'NOT'",
                    )
                ],
            ),
        ],
    )
    def test_document(self, text, policy, diagnostics):
        assert parse_policy(text, name="P") == (policy, diagnostics)

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
            message = f"option starts with {token!r}, which looks like a section number"
            expected.append(_diagnostic("WARNING", "HEADING_LIKE_OPTION", 2, message))
        if label is not None and label != label.lower():
            message = f"option label {label!r} should be lower case"
            expected.append(_diagnostic("WARNING", "BAD_OPTION_LABEL", 2, message))
        expected += _lookalike_warnings(keyword, phrase)
        if phrase:
            policy = _intro(PolicyOption(phrase, keyword and Keyword[keyword]))
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
        assert policy == _intro(PolicyOption(phrase, keyword and Keyword[keyword]))
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
    def test_depth_beyond_four_warns_but_parses(self):
        text = "1 A\n1.1 B\n1.1.1 C\n1.1.1.1 D\n1.1.1.1.1 E\n"
        policy, diagnostics = parse_policy(text)
        assert policy is not None
        assert warning_codes(diagnostics) == ["DEPTH_EXCEEDS_4"]
        assert find(policy, "1.1.1.1.1").title == "E"

    def test_lowercase_main_section_warns(self):
        policy, diagnostics = parse_policy("1 Introduction\n")
        assert warning_codes(diagnostics) == ["MAIN_SECTION_NOT_CAPS"]
        assert policy.roots[0].title == "Introduction"

    def test_subsection_titles_need_not_be_caps(self):
        _, diagnostics = parse_policy("1 TOP\n1.1 Mixed case here\n")
        assert diagnostics == []

    def test_comment_before_any_section_is_dropped(self):
        policy, diagnostics = parse_policy("// stray remark\n1 TOP\n")
        assert warning_codes(diagnostics) == ["COMMENT_BEFORE_SECTION"]
        assert policy.roots[0].comments == ()

    def test_malformed_number_becomes_option_with_warning(self):
        policy, diagnostics = parse_policy("1 TOP\n1..2 Broken heading\n")
        assert warning_codes(diagnostics) == ["HEADING_LIKE_OPTION"]
        assert policy.roots[0].options[0].phrase == "1..2 Broken heading"

    def test_bare_dotted_number_line_warns(self):
        _, diagnostics = parse_policy("1 TOP\n1.2.3\n")
        assert warning_codes(diagnostics) == ["HEADING_LIKE_OPTION"]


class TestErrors:
    def test_duplicate_section(self):
        policy, diagnostics = parse_policy("1 TOP\n1 AGAIN\n")
        assert policy is None
        assert error_codes(diagnostics) == ["DUPLICATE_SECTION"]

    def test_orphan_section(self):
        policy, diagnostics = parse_policy("1 TOP\n1.2.1 Skipped a level\n")
        assert policy is None
        assert error_codes(diagnostics) == ["ORPHAN_SECTION"]

    def test_orphan_children_do_not_cascade(self):
        text = "1 TOP\n1.2.1 Orphan\n1.2.1.1 Child of orphan\n"
        _, diagnostics = parse_policy(text)
        assert error_codes(diagnostics) == ["ORPHAN_SECTION"]

    def test_root_out_of_order(self):
        policy, diagnostics = parse_policy("2 SECOND\n1 FIRST\n")
        assert policy is None
        assert error_codes(diagnostics) == ["SECTION_OUT_OF_ORDER"]

    def test_sibling_out_of_order(self):
        text = "1 TOP\n1.2 B\n1.1 A\n"
        policy, diagnostics = parse_policy(text)
        assert policy is None
        assert error_codes(diagnostics) == ["SECTION_OUT_OF_ORDER"]

    # A section is checked against its last linked sibling, so one that drew
    # an error does not move the bar for the sections after it.
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("1 TOP\n1.3 C\n1.1 A\n1.2 B\n", [("SECTION_OUT_OF_ORDER", 3), ("SECTION_OUT_OF_ORDER", 4)]),
            ("1 TOP\n1.2 B\n1.1 A\n1.3 C\n", [("SECTION_OUT_OF_ORDER", 3)]),
            (
                "1 TOP\n1.2 B\n1.2 B\n1.3 C\n1.1.1 X\n",
                [("DUPLICATE_SECTION", 3), ("ORPHAN_SECTION", 5)],
            ),
        ],
        ids=["after-later-sibling", "after-unlinked-sibling", "after-duplicate"],
    )
    def test_sibling_order_reads_the_last_linked_sibling(self, text, expected):
        policy, diagnostics = parse_policy(text)
        assert policy is None
        assert [(d.code, d.line) for d in diagnostics] == expected

    def test_section_after_later_sibling_closed(self):
        text = "1 TOP\n2 NEXT\n1.1 Late child\n"
        policy, diagnostics = parse_policy(text)
        assert policy is None
        assert error_codes(diagnostics) == ["SECTION_OUT_OF_ORDER"]

    def test_zero_segment_rejected(self):
        policy, diagnostics = parse_policy("0 TOP\n")
        assert policy is None
        assert error_codes(diagnostics) == ["BAD_SECTION_NUMBER"]

    def test_zero_inner_segment_rejected(self):
        _, diagnostics = parse_policy("1 TOP\n1.0 Sub\n")
        assert error_codes(diagnostics) == ["BAD_SECTION_NUMBER"]

    def test_zero_weight_rejected(self):
        policy, diagnostics = parse_policy("1 TOP 0\n")
        assert policy is None
        assert error_codes(diagnostics) == ["BAD_WEIGHT"]

    # CPython's int() refuses strings of more than 4300 digits by default.
    @pytest.mark.parametrize(
        "text, code",
        [
            ("1" * 4301 + " T", "BAD_SECTION_NUMBER"),
            ("1 T " + "1" * 4301, "BAD_WEIGHT"),
            ("1." + "2" * 4301 + " T", "BAD_SECTION_NUMBER"),
        ],
        ids=["section", "weight", "inner-segment"],
    )
    def test_numbers_too_long_to_convert_rejected(self, text, code):
        policy, diagnostics = parse_policy(text)
        assert policy is None
        assert error_codes(diagnostics) == [code]

    def test_depth_limit(self):
        policy, diagnostics = parse_policy(chain_text(MAX_DEPTH))
        assert policy is not None
        assert error_codes(diagnostics) == []
        policy, diagnostics = parse_policy(chain_text(MAX_DEPTH + 1))
        assert policy is None
        assert error_codes(diagnostics) == ["DEPTH_LIMIT"]
        assert diagnostics[-1].line == MAX_DEPTH + 1

    def test_far_past_depth_limit_does_not_raise(self):
        policy, diagnostics = parse_policy(chain_text(600))
        assert policy is None
        assert error_codes(diagnostics) == ["DEPTH_LIMIT"] * (600 - MAX_DEPTH)

    def test_unknown_connective_rejected(self):
        policy, diagnostics = parse_policy("1 TOP\nConnection XOR\n")
        assert policy is None
        assert error_codes(diagnostics) == ["BAD_CONNECTIVE"]

    def test_connection_without_argument_rejected(self):
        _, diagnostics = parse_policy("1 TOP\nConnection\n")
        assert error_codes(diagnostics) == ["BAD_CONNECTIVE"]

    def test_connection_with_extra_tokens_rejected(self):
        _, diagnostics = parse_policy("1 TOP\nConnection AND OR\n")
        assert error_codes(diagnostics) == ["BAD_CONNECTIVE"]

    def test_option_before_any_section(self):
        policy, diagnostics = parse_policy("a) MUST things\n1 TOP\n")
        assert policy is None
        assert error_codes(diagnostics) == ["OPTION_BEFORE_SECTION"]

    def test_connection_before_any_section(self):
        policy, diagnostics = parse_policy("Connection AND\n1 TOP\n")
        assert policy is None
        assert error_codes(diagnostics) == ["CONNECTION_BEFORE_SECTION"]

    def test_duplicate_option_label(self):
        policy, diagnostics = parse_policy("1 TOP\na) MUST x\na) MUST y\n")
        assert policy is None
        assert error_codes(diagnostics) == ["DUPLICATE_OPTION_LABEL"]

    def test_empty_option_phrase_after_label(self):
        policy, diagnostics = parse_policy("1 TOP\na)\n")
        assert policy is None
        assert error_codes(diagnostics) == ["EMPTY_OPTION_PHRASE"]

    def test_empty_option_phrase_after_keyword(self):
        _, diagnostics = parse_policy("1 TOP\na) MUST\n")
        assert error_codes(diagnostics) == ["EMPTY_OPTION_PHRASE"]

    def test_multiple_errors_all_reported(self):
        text = "1 TOP 0\n1 TOP\nConnection MAYBE\n"
        policy, diagnostics = parse_policy(text)
        assert policy is None
        assert error_codes(diagnostics) == [
            "BAD_WEIGHT",
            "DUPLICATE_SECTION",
            "BAD_CONNECTIVE",
        ]

    def test_diagnostics_carry_line_numbers(self):
        text = "1 TOP\n\n// fine\nConnection BOTH\n"
        _, diagnostics = parse_policy(text)
        assert [d.line for d in diagnostics] == [4]

    def test_diagnostic_message_is_readable(self):
        _, diagnostics = parse_policy("1 TOP\n1 TOP\n")
        rendered = str(diagnostics[0])
        assert "line 2" in rendered
        assert "DUPLICATE_SECTION" in rendered


class TestEmptyInput:
    def test_empty_text(self):
        policy, diagnostics = parse_policy("", name="empty")
        assert diagnostics == []
        assert policy is not None
        assert policy.roots == ()

    def test_whitespace_only(self):
        policy, diagnostics = parse_policy("  \n\n\t\n")
        assert policy is not None
        assert policy.roots == ()


class TestRendering:
    def test_golden_document_round_trips(self, sample_policy_text):
        policy, _ = parse_ok(sample_policy_text, name="sample")
        rendered = render_policy(policy)
        reparsed, diagnostics = parse_policy(rendered, name="sample")
        assert diagnostics == []
        assert policy.roots == reparsed.roots

    def test_render_synthesizes_labels(self):
        policy, _ = parse_ok("1 TOP\nMUST first\nsecond thing\n")
        rendered = render_policy(policy)
        assert "a) MUST first" in rendered
        assert "b) second thing" in rendered

    def test_render_relabels_sequentially(self):
        policy, _ = parse_ok("1 TOP\nc) MUST x\nd) MUST y\n")
        rendered = render_policy(policy)
        assert "a) MUST x" in rendered
        assert "b) MUST y" in rendered

    def test_default_weight_is_omitted(self):
        policy, _ = parse_ok("1 TOP\n")
        assert render_policy(policy).splitlines() == ["1 TOP"]

    def test_non_default_weight_is_emitted(self):
        policy, _ = parse_ok("1 TOP 3\n")
        assert render_policy(policy).splitlines() == ["1 TOP 3"]

    def test_digit_final_title_keeps_explicit_weight(self):
        # Without the explicit weight the reparse would read the title's
        # last token as the weight.
        policy, _ = parse_ok("1 SECTION 508 1\n")
        rendered = render_policy(policy)
        assert rendered.splitlines() == ["1 SECTION 508 1"]
        reparsed, _ = parse_policy(rendered)
        assert reparsed.roots[0].title == "SECTION 508"
        assert reparsed.roots[0].weight == 1

    def test_all_digit_title_round_trips(self):
        policy, _ = parse_ok("1 2024\n")
        reparsed, _ = parse_policy(render_policy(policy))
        assert reparsed.roots[0].title == "2024"
        assert reparsed.roots[0].weight == 1

    def test_connection_rendered_only_when_declared(self):
        policy, _ = parse_ok("1 TOP\na) x\nConnection OR\n2 NEXT\na) y\n")
        lines = render_policy(policy).splitlines()
        assert lines.count("Connection OR") == 1

    def test_comments_are_preserved(self):
        policy, _ = parse_ok("1 TOP\n// keep me\na) x\n// me too\n")
        reparsed, _ = parse_policy(render_policy(policy))
        assert reparsed.roots[0].comments == ("// keep me", "// me too")

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
    @given(policy=hostile_policies())
    def test_random_policies_round_trip(self, policy):
        rendered = render_policy(policy)
        reparsed, diagnostics = parse_policy(rendered, name=policy.name)
        assert not [d for d in diagnostics if d.severity is Severity.ERROR]
        assert reparsed is not None
        assert policy.roots == reparsed.roots
