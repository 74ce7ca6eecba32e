"""The construction checks of the domain model: one test per rule."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from cpcompat.model import (
    MAX_DEPTH,
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

from strategies import hostile_policies


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
        assert NumberPath((1,) * MAX_DEPTH).depth == MAX_DEPTH
        with pytest.raises(ValueError, match=f"more than {MAX_DEPTH} segments"):
            NumberPath((1,) * (MAX_DEPTH + 1))

    def test_parser_limit_is_the_model_limit(self):
        assert parser.MAX_DEPTH is MAX_DEPTH


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


class TestParagraph:
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
        assert [p.path.dotted for p in tree.walk()] == ["1", "1.1", "1.3", "1.3.2"]


class TestPolicy:
    def test_root_not_at_depth_one(self, paragraph_factory):
        with pytest.raises(ValueError, match="child 1.1 does not extend the policy root by one segment"):
            Policy(name="P", roots=(paragraph_factory("1.1"),))

    def test_unordered_roots(self, paragraph_factory):
        with pytest.raises(ValueError, match="children of the policy root must be strictly ordered"):
            Policy(name="P", roots=(paragraph_factory("2"), paragraph_factory("1")))


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


class TestOnlyWritableTrees:
    """Whatever the model admits, the text format writes back unchanged."""

    @settings(max_examples=1000, deadline=None)
    @given(policy=hostile_policies())
    def test_built_trees_render_and_reparse_equal(self, policy):
        reparsed, diagnostics = parse_policy(render_policy(policy), name=policy.name)
        assert not [d for d in diagnostics if d.severity is Severity.ERROR]
        assert reparsed.roots == policy.roots

    def test_chain_at_the_depth_limit_renders_and_reparses_equal(self):
        policy = Policy(name="deep", roots=(chain(MAX_DEPTH),))
        reparsed, diagnostics = parse_policy(render_policy(policy), name="deep")
        assert not [d for d in diagnostics if d.severity is Severity.ERROR]
        assert reparsed.roots == policy.roots
