"""Tests for acceptance rule parsing and verdict evaluation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpcompat.acceptance import (
    AcceptanceRule,
    RuleError,
    RuleKind,
    RuleSyntaxError,
    UnknownPathError,
    Verdict,
    evaluate,
    parse_rules,
)
from cpcompat.cli import main
from cpcompat.comparison import compare
from cpcompat.model import ComparisonMode, NumberPath
from cpcompat.parser import parse_policy

from strategies import policies

MERGE = ComparisonMode.MERGE


def policy_from(text: str, name: str = "P"):
    policy, diagnostics = parse_policy(text, name=name)
    assert policy is not None, diagnostics
    return policy


@pytest.fixture
def report_32_5(worked_policy_a_text, worked_policy_b_text):
    a = policy_from(worked_policy_a_text, name="A")
    b = policy_from(worked_policy_b_text, name="B")
    return compare(a, b, MERGE)


@pytest.fixture
def report_80(worked_policy_a_text, worked_policy_b_text):
    a = policy_from(worked_policy_a_text.replace("Connection AND", "Connection OR"), "A")
    b = policy_from(worked_policy_b_text.replace("Connection AND", "Connection OR"), "B")
    report = compare(a, b, MERGE)
    assert report.overall_weighted == 80.0
    return report


@pytest.fixture
def report_mixed():
    # Two top-level sections, one perfect and one hopeless, with weights
    # 3 and 1: weighted 75, unweighted 50.
    a = policy_from("1 GOOD 3\na) MUST x\n2 BAD 1\na) MUST y\n")
    b = policy_from("1 GOOD 3\na) MUST x\n2 BAD 1\na) MUST z\n")
    report = compare(a, b, MERGE)
    assert report.overall_weighted == 75.0
    assert report.overall_unweighted == 50.0
    return report


class TestParseRules:
    def test_overall_strict_default_weighted(self):
        rules = parse_rules("overall > 80\n")
        assert rules == [
            AcceptanceRule(
                kind=RuleKind.OVERALL_MIN,
                threshold=80.0,
                path=None,
                use_weighted=True,
                inclusive=False,
            )
        ]

    def test_overall_inclusive_unweighted(self):
        (rule,) = parse_rules("overall >= 62.5 unweighted\n")
        assert rule.inclusive is True
        assert rule.use_weighted is False
        assert rule.threshold == 62.5

    def test_explicit_weighted_basis(self):
        (rule,) = parse_rules("overall > 70 weighted\n")
        assert rule.use_weighted is True

    def test_paragraph_minimum(self):
        (rule,) = parse_rules("paragraph 1.2 > 50\n")
        assert rule.kind is RuleKind.PARAGRAPH_MIN
        assert rule.path == NumberPath.parse("1.2")
        assert rule.inclusive is False

    def test_paragraph_inclusive(self):
        (rule,) = parse_rules("paragraph 4 >= 99.5\n")
        assert rule.inclusive is True

    def test_paragraph_exact(self):
        (rule,) = parse_rules("paragraph 1.2.3 == 100\n")
        assert rule.kind is RuleKind.PARAGRAPH_EXACT_100
        assert rule.threshold == 100.0

    def test_comments_and_blanks_ignored(self):
        text = "# require a strong match\n\noverall > 80\n  # indented remark\n"
        assert len(parse_rules(text)) == 1

    def test_multiple_rules_in_order(self):
        rules = parse_rules("overall > 80\nparagraph 1 == 100\n")
        assert [r.kind for r in rules] == [
            RuleKind.OVERALL_MIN,
            RuleKind.PARAGRAPH_EXACT_100,
        ]

    def test_empty_text_gives_no_rules(self):
        assert parse_rules("") == []


class TestParseRuleErrors:
    @pytest.mark.parametrize(
        "line",
        [
            "verdict > 80",
            "OVERALL > 80",
            "overall = 80",
            "overall < 80",
            "overall > eighty",
            "overall > 101",
            "overall > -1",
            "overall > 80 sideways",
            "overall > 80 weighted extra",
            "overall >",
            "overall",
            "paragraph > 50",
            "paragraph 1.x > 50",
            "paragraph 1.0 > 50",
            "paragraph 1.2 == 99",
            "paragraph 1.2 = 100",
            "paragraph 1.2 >= 100 weighted",
        ],
    )
    def test_bad_lines_raise_syntax_errors(self, line):
        with pytest.raises(RuleSyntaxError):
            parse_rules(line + "\n")

    def test_section_numbers_are_ascii_digits(self, tmp_path, capsys):
        # U+0663 ARABIC-INDIC DIGIT THREE: no section number in a rule, as in
        # a heading, even where the policy has a section 3.
        line = "paragraph \u0663 > 50\n"
        with pytest.raises(RuleSyntaxError, match="bad section number"):
            parse_rules(line)
        policy = tmp_path / "p.txt"
        policy.write_text("1 ONE\n2 TWO\n3 THREE\na) MUST x\n", encoding="utf-8")
        rules = tmp_path / "rules.txt"
        rules.write_text(line, encoding="utf-8")
        assert main(["compare", str(policy), str(policy), "--rules", str(rules)]) == 4
        assert "bad section number" in capsys.readouterr().err

    def test_error_names_line_number(self):
        with pytest.raises(RuleSyntaxError, match="line 3"):
            parse_rules("overall > 80\n# fine\nnonsense here\n")

    def test_rule_errors_are_value_errors(self):
        assert issubclass(RuleSyntaxError, RuleError)
        assert issubclass(UnknownPathError, RuleError)
        assert issubclass(RuleError, ValueError)


class TestEvaluate:
    def test_no_rules_accepts(self, report_32_5):
        verdict = evaluate(report_32_5, [])
        assert verdict.accepted is True
        assert verdict.failures == ()

    def test_failed_overall_rule(self, report_32_5):
        verdict = evaluate(report_32_5, parse_rules("overall > 80\n"))
        assert verdict.accepted is False
        assert len(verdict.failures) == 1
        failure = verdict.failures[0]
        assert failure.actual == 32.5
        assert "overall > 80" in failure.message

    def test_strict_threshold_rejects_equal_score(self, report_80):
        verdict = evaluate(report_80, parse_rules("overall > 80\n"))
        assert verdict.accepted is False

    def test_inclusive_threshold_accepts_equal_score(self, report_80):
        verdict = evaluate(report_80, parse_rules("overall >= 80\n"))
        assert verdict.accepted is True

    def test_weighted_and_unweighted_bases(self, report_mixed):
        assert evaluate(report_mixed, parse_rules("overall > 60 weighted\n")).accepted
        assert not evaluate(report_mixed, parse_rules("overall > 60 unweighted\n")).accepted

    def test_paragraph_rule_reads_combined_score(self, report_mixed):
        assert evaluate(report_mixed, parse_rules("paragraph 1 >= 100\n")).accepted
        assert not evaluate(report_mixed, parse_rules("paragraph 2 > 0\n")).accepted

    def test_paragraph_exact_rule(self, report_mixed):
        assert evaluate(report_mixed, parse_rules("paragraph 1 == 100\n")).accepted
        assert not evaluate(report_mixed, parse_rules("paragraph 2 == 100\n")).accepted

    def test_unknown_path_raises(self, report_mixed):
        with pytest.raises(UnknownPathError, match="9.9"):
            evaluate(report_mixed, parse_rules("paragraph 9.9 > 0\n"))

    def test_all_rules_must_pass(self, report_mixed):
        rules = parse_rules("overall > 60\nparagraph 2 > 60\n")
        verdict = evaluate(report_mixed, rules)
        assert verdict.accepted is False
        assert len(verdict.failures) == 1

    def test_every_failure_is_reported(self, report_32_5):
        rules = parse_rules("overall > 90\noverall > 95 unweighted\nparagraph 1 == 100\n")
        verdict = evaluate(report_32_5, rules)
        assert len(verdict.failures) == 3

    def test_verdict_is_plain_data(self, report_32_5):
        verdict = evaluate(report_32_5, parse_rules("overall > 80\n"))
        assert isinstance(verdict, Verdict)
        assert verdict.failures[0].rule.kind is RuleKind.OVERALL_MIN


class TestEvaluateProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        policy=policies(),
        low=st.floats(0, 100),
        high=st.floats(0, 100),
    )
    def test_acceptance_is_monotone_in_threshold(self, policy, low, high):
        low, high = sorted((low, high))
        report = compare(policy, policy, MERGE)
        rule_low = AcceptanceRule(
            kind=RuleKind.OVERALL_MIN, threshold=low, path=None,
            use_weighted=True, inclusive=False,
        )
        rule_high = AcceptanceRule(
            kind=RuleKind.OVERALL_MIN, threshold=high, path=None,
            use_weighted=True, inclusive=False,
        )
        if evaluate(report, [rule_high]).accepted:
            assert evaluate(report, [rule_low]).accepted

    def test_rule_order_does_not_change_verdict(self, report_mixed):
        rules = parse_rules(
            "overall > 60\noverall > 90\nparagraph 1 == 100\nparagraph 2 > 10\n"
        )
        shuffled = list(rules)
        random.Random(7).shuffle(shuffled)
        original = evaluate(report_mixed, rules)
        reordered = evaluate(report_mixed, shuffled)
        assert original.accepted == reordered.accepted
        assert {f.message for f in original.failures} == {
            f.message for f in reordered.failures
        }
