"""The construction checks of the domain model: one test per rule."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import sys

import pytest

from cpcompat.model import (
    MAX_DEPTH,
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
from cpcompat import parser
from cpcompat.parser import Severity, parse_policy, render_policy


def chain(depth: int) -> Paragraph:
    """Sections 1, 1.1, 1.1.1, ... to ``depth`` segments, built through the API."""
    paragraph = Paragraph(NumberPath((1,) * depth), "Level", options=(PolicyOption("hold"),))
    for level in range(depth - 1, 0, -1):
        paragraph = Paragraph(NumberPath((1,) * level), "Level", children=(paragraph,))
    return paragraph


class TestNumberPath:
    def test_needs_a_segment(self):
        with pytest.raises(ValueError, match="needs at least one segment"):
            NumberPath(())

    @pytest.mark.parametrize("segments", [(0,), (1, 0), (2, -1, 3)])
    def test_segment_below_one(self, segments):
        with pytest.raises(ValueError, match="segments must be >= 1"):
            NumberPath(segments)

    # 2.5 would render as "2.5 TOP", an orphan section; True as "True TOP",
    # an option line.
    @pytest.mark.parametrize("segments", [(2.5,), (True,), (1, 2.0), (1, False)])
    def test_segment_not_an_int(self, segments):
        with pytest.raises(ValueError, match="segments must be int"):
            NumberPath(segments)

    def test_depth_limit(self):
        assert len(NumberPath((1,) * MAX_DEPTH).segments) == MAX_DEPTH
        with pytest.raises(ValueError, match=f"more than {MAX_DEPTH} segments"):
            NumberPath((1,) * (MAX_DEPTH + 1))

    def test_parser_limit_is_the_model_limit(self):
        assert parser.MAX_DEPTH is MAX_DEPTH


class TestKeyword:
    def test_the_four_keyword_values(self):
        assert [(k.name, k.value) for k in Keyword] == [
            ("MUST", 1.0), ("RECOMMENDED", 0.8), ("OPTIONAL", 0.5), ("NOT", 0.0),
        ]


class TestPolicyOption:
    @pytest.mark.parametrize("phrase", ["", "   ", "\t\u00a0"])
    def test_blank_phrase(self, phrase):
        with pytest.raises(ValueError, match="option phrase must be non-empty"):
            PolicyOption(phrase=phrase)

    @pytest.mark.parametrize("phrase", ["a\nb", "a\rb", "x\x0by", "x\u2028y", "x\x85y"])
    def test_phrase_with_line_break(self, phrase):
        with pytest.raises(ValueError, match="option phrase must not contain line breaks"):
            PolicyOption(phrase=phrase)

    @pytest.mark.parametrize("phrase", [" x", "x ", "x\u00a0", "\tx"])
    def test_phrase_not_stripped(self, phrase):
        with pytest.raises(ValueError, match="option phrase must be non-empty and stripped"):
            PolicyOption(phrase=phrase)

    @pytest.mark.parametrize("phrase", ["NOT x", "NOT", "MUST  do", "RECOMMENDED x", "OPTIONAL"])
    def test_phrase_starting_with_a_keyword_needs_one(self, phrase):
        with pytest.raises(ValueError, match="without a keyword starts with one"):
            PolicyOption(phrase=phrase)
        # With its own keyword in front, the phrase reads back whole.
        assert PolicyOption(phrase=phrase, keyword=Keyword.MUST).phrase == phrase

    @pytest.mark.parametrize("phrase", ["MUST\tx", "MUSTx", "must x", "x NOT y"])
    def test_phrase_that_only_looks_like_a_keyword(self, phrase):
        assert PolicyOption(phrase=phrase).keyword is None

    # Scoring and the renderer read a keyword's value and name.
    @pytest.mark.parametrize("keyword", ["MUST", 1.0, Connective.AND])
    def test_keyword_not_a_keyword(self, keyword):
        with pytest.raises(ValueError, match="option keyword must be a Keyword, got"):
            PolicyOption("keep logs", keyword)


class TestParagraph:
    @pytest.mark.parametrize("path", [(1,), "1", 1])
    def test_path_not_a_number_path(self, path):
        with pytest.raises(ValueError, match="paragraph path must be a NumberPath, got"):
            Paragraph(path, "A")

    # A string connective would be scored as AND, whatever it says.
    @pytest.mark.parametrize("connective", ["OR", None, ComparisonMode.MERGE])
    def test_connective_not_a_connective(self, connective):
        with pytest.raises(ValueError, match="paragraph connective must be a Connective, got"):
            Paragraph(NumberPath((1,)), "A", connective=connective)

    @pytest.mark.parametrize("title", ["", " T", "T ", "T\u00a0"])
    def test_title_not_stripped(self, title, paragraph_factory):
        with pytest.raises(ValueError, match="title must be non-empty and stripped"):
            paragraph_factory("1", title=title)

    def test_title_with_line_break(self, paragraph_factory):
        for title in ("A\nB", "TO\x85P", "A\u2029B"):
            with pytest.raises(ValueError, match="title must not contain line breaks"):
                paragraph_factory("1", title=title)

    def test_weight_zero(self, paragraph_factory):
        with pytest.raises(ValueError, match="weight must be >= 1, got 0"):
            paragraph_factory("1", weight=0)

    # A weight of 2.5 would render as "1 TOP 2.5", read back as the title
    # "TOP 2.5" with weight 1; True would reach the JSON report as true.
    @pytest.mark.parametrize("weight", [2.5, 2.0, True])
    def test_weight_not_an_int(self, weight, paragraph_factory):
        with pytest.raises(ValueError, match="weight must be an int"):
            paragraph_factory("1", weight=weight)

    def test_comment_without_slashes(self, paragraph_factory):
        with pytest.raises(ValueError, match="comment must start with //"):
            paragraph_factory("1", comments=("/ remark",))

    def test_comment_with_line_break(self, paragraph_factory):
        for comment in ("// a\nb", "// a\u2028b", "// a\x1cb"):
            with pytest.raises(ValueError, match="comment must not contain line breaks"):
                paragraph_factory("1", comments=(comment,))

    @pytest.mark.parametrize("comment", ["// a ", "//\u00a0", "//\t"])
    def test_comment_not_stripped(self, comment, paragraph_factory):
        with pytest.raises(ValueError, match="comment must be non-empty and stripped"):
            paragraph_factory("1", comments=(comment,))

    @pytest.mark.parametrize("child", ["1", "2.1", "1.1.1", "2"])
    def test_child_does_not_extend_parent(self, child, paragraph_factory):
        with pytest.raises(ValueError, match=f"child {child} does not extend 1 by one"):
            paragraph_factory("1", children=(paragraph_factory(child),))

    @pytest.mark.parametrize("order", [("1.2", "1.1"), ("1.1", "1.1")])
    def test_unordered_children(self, order, paragraph_factory):
        children = tuple(paragraph_factory(dotted) for dotted in order)
        with pytest.raises(ValueError, match="children of 1 must be strictly ordered"):
            paragraph_factory("1", children=children)

    def test_nested_children_are_accepted(self, paragraph_factory):
        middle = paragraph_factory("1.3", children=(paragraph_factory("1.3.2"),))
        tree = paragraph_factory("1", children=(paragraph_factory("1.1"), middle))
        assert [p.path.dotted for p in Policy("P", (tree,)).walk()] == ["1", "1.1", "1.3", "1.3.2"]


class TestPolicy:
    def test_root_not_at_depth_one(self, paragraph_factory):
        with pytest.raises(ValueError, match="child 1.1 does not extend the policy root by one segment"):
            Policy(name="P", roots=(paragraph_factory("1.1"),))

    def test_unordered_roots(self, paragraph_factory):
        with pytest.raises(ValueError, match="children of the policy root must be strictly ordered"):
            Policy(name="P", roots=(paragraph_factory("2"), paragraph_factory("1")))

    # A name that is not a str would reach the report, which writes it as a
    # JSON string, and the merged draft's "A+B" name.
    def test_name_not_a_str(self):
        with pytest.raises(ValueError, match="policy name must be a str, got 5"):
            Policy(name=5)


class TestParagraphScore:
    def score(self, **changes) -> ParagraphScore:
        fields = dict(
            path=NumberPath((1,)),
            own_score=50.0,
            child_aggregate=None,
            combined_score=50.0,
            weight=1,
            match_status=MatchStatus.MATCHED,
        )
        return ParagraphScore(**{**fields, **changes})

    def test_weight_zero(self):
        with pytest.raises(ValueError, match="weight must be >= 1, got 0"):
            self.score(weight=0)

    @pytest.mark.parametrize("weight", [2.5, True])
    def test_weight_not_an_int(self, weight):
        with pytest.raises(ValueError, match="weight must be an int"):
            self.score(weight=weight)

    # repr(True) and repr(None) are not JSON, so the report could not hold them.
    @pytest.mark.parametrize(
        "changes",
        [{"own_score": True}, {"own_score": None}, {"combined_score": False}, {"child_aggregate": True}],
    )
    def test_score_not_an_int_or_float(self, changes):
        with pytest.raises(ValueError, match="must be an int or float"):
            self.score(**changes)

    @pytest.mark.parametrize("name", ["own_score", "child_aggregate", "combined_score"])
    def test_score_out_of_range(self, name):
        with pytest.raises(ValueError, match=f"{name} out of range"):
            self.score(**{name: 100.5})

    def test_path_not_a_number_path(self):
        with pytest.raises(ValueError, match="score path must be a NumberPath, got"):
            self.score(path=(1,))

    def test_match_status_not_a_match_status(self):
        with pytest.raises(ValueError, match="match_status must be a MatchStatus, got 'matched'"):
            self.score(match_status="matched")


class TestComparisonReport:
    @pytest.mark.parametrize("name", ["policy_a_name", "policy_b_name"])
    def test_policy_name_not_a_str(self, name):
        names = {"policy_a_name": "A", "policy_b_name": "B", name: 5}
        with pytest.raises(ValueError, match=f"{name} must be a str, got 5"):
            ComparisonReport(ComparisonMode.MERGE, paragraph_scores=(), **names)

    # A string mode would be scored with merge semantics and break the JSON writer.
    def test_mode_not_a_comparison_mode(self):
        with pytest.raises(ValueError, match="report mode must be a ComparisonMode, got 'acquire'"):
            ComparisonReport("acquire", "A", "B", ())


class TestComparisonDiagnostic:
    def test_fields_of_the_documented_types(self):
        assert ComparisonDiagnostic("ANY", None, "m").path is None
        assert ComparisonDiagnostic("ANY", NumberPath((1,)), "m").code == "ANY"

    def test_code_not_a_str(self):
        with pytest.raises(ValueError, match="diagnostic code must be a str"):
            ComparisonDiagnostic(5, None, "m")

    @pytest.mark.parametrize("path", ["1", (1,), 1])
    def test_path_not_a_number_path(self, path):
        with pytest.raises(ValueError, match="diagnostic path must be a NumberPath or None"):
            ComparisonDiagnostic("MISSING_IN_A", path, "m")

    def test_message_not_a_str(self):
        with pytest.raises(ValueError, match="diagnostic message must be a str"):
            ComparisonDiagnostic("MISSING_IN_A", None, None)


def test_every_line_boundary_is_unprintable_and_refused(paragraph_factory):
    # _check_line splits only text that is not printable, which is right
    # only while no line boundary is printable.
    boundaries = []
    for code_point in range(sys.maxunicode + 1):
        c = chr(code_point)
        if len(("a" + c + "b").splitlines()) > 1:
            boundaries.append(c)
            assert not c.isprintable(), hex(code_point)
    assert len(boundaries) == 10
    for c in boundaries:
        with pytest.raises(ValueError, match="option phrase must not contain line breaks"):
            PolicyOption("a" + c + "b")
        with pytest.raises(ValueError, match="title must not contain line breaks"):
            paragraph_factory("1", title="a" + c + "b")
        with pytest.raises(ValueError, match="comment must not contain line breaks"):
            paragraph_factory("1", comments=("// a" + c + "b",))


class TestSlottedValues:
    """The slotted value classes copy, pickle, replace and match like plain
    frozen dataclasses on every supported interpreter."""

    VALUES = [
        NumberPath((1, 2)),
        PolicyOption("keep logs", Keyword.MUST),
        Paragraph(
            NumberPath((1,)),
            "TOP",
            2,
            (PolicyOption("x"),),
            Connective.OR,
            ("// c",),
            (Paragraph(NumberPath((1, 1)), "Sub"),),
        ),
        ParagraphScore(NumberPath((1,)), 50.0, None, 50.0, 1, MatchStatus.MATCHED),
        ComparisonDiagnostic("MISSING_IN_B", NumberPath((2,)), "section 2 has no counterpart"),
        parser.ParseDiagnostic(Severity.WARNING, "DEPTH_EXCEEDS_4", 3, "deep"),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_copies_are_equal(self, value):
        assert not hasattr(value, "__dict__")
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
        assert dataclasses.replace(value) == value
        assert hash(dataclasses.replace(value)) == hash(value)

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_frozen(self, value):
        name = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)

    def test_match_args(self):
        match PolicyOption("keep logs", Keyword.NOT):
            case PolicyOption(phrase, Keyword.NOT):
                assert phrase == "keep logs"
            case _:
                pytest.fail("positional pattern did not match")

    CHECKED = [
        (VALUES[0], {"segments": (1, 0)}, "number path segments must be >= 1"),
        (VALUES[1], {"phrase": " keep logs"}, "option phrase must be non-empty and stripped"),
        (VALUES[2], {"weight": 0}, "weight must be >= 1"),
        (VALUES[3], {"combined_score": 101}, "combined_score out of range"),
        (VALUES[4], {"code": 7}, "diagnostic code must be a str"),
    ]

    @pytest.mark.parametrize(
        "value, changes, message", CHECKED, ids=[type(v).__name__ for v, _, _ in CHECKED]
    )
    def test_replace_runs_the_checks(self, value, changes, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(value, **changes)

    def test_init_takes_the_fields_in_order_with_their_defaults(self):
        # The __init__ signatures are written by hand; they follow the fields.
        for value in self.VALUES:
            cls = type(value)
            parameters = list(inspect.signature(cls.__init__).parameters)[1:]
            assert parameters == [f.name for f in dataclasses.fields(cls)], cls.__name__
        paragraph = Paragraph(NumberPath((1,)), "TOP")
        assert (paragraph.weight, paragraph.options, paragraph.connective) == (1, (), Connective.NONE)
        assert (paragraph.comments, paragraph.children) == ((), ())
        assert PolicyOption("keep logs").keyword is None

    def test_lists_are_stored_as_tuples(self):
        child = Paragraph(NumberPath((1, 1)), "Sub")
        paragraph = Paragraph(
            NumberPath([1]), "TOP", options=[PolicyOption("x")], comments=["// c"], children=[child]
        )
        assert paragraph.path.segments == (1,)
        assert (paragraph.options, paragraph.comments, paragraph.children) == (
            (PolicyOption("x"),),
            ("// c",),
            (child,),
        )


class TestOnlyWritableTrees:
    """Whatever the model admits, the text format writes back unchanged.
    The randomized round trip is tests/test_parser.py's
    test_random_policies_round_trip."""

    def test_chain_at_the_depth_limit_renders_and_reparses_equal(self):
        policy = Policy(name="deep", roots=(chain(MAX_DEPTH),))
        reparsed, diagnostics = parse_policy(render_policy(policy), name="deep")
        assert not [d for d in diagnostics if d.severity is Severity.ERROR]
        assert reparsed.roots == policy.roots
