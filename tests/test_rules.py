"""Tests for acceptance rule parsing and verdict evaluation."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpcompat.acceptance
from cpcompat.acceptance import (
    AcceptanceRule,
    RuleError,
    RuleSyntaxError,
    UnknownPathError,
    Verdict,
    evaluate,
    parse_rules,
)
from cpcompat.cli import main
from cpcompat.comparison import compare
from cpcompat.model import MAX_DEPTH, ComparisonMode, NumberPath

from conftest import policy_from
from strategies import policy_pairs

MERGE = ComparisonMode.MERGE


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


def _paragraph(dotted, operator, threshold):
    return AcceptanceRule(operator, threshold, NumberPath.parse(dotted))


def _rules_text(text, expected):
    """A test that ``parse_rules(text)`` returns ``expected``, a list of
    rules, or raises a RuleSyntaxError whose message is ``expected``."""

    def test(self):
        if isinstance(expected, list):
            assert parse_rules(text) == expected
        else:
            with pytest.raises(RuleSyntaxError) as raised:
                parse_rules(text)
            assert str(raised.value) == expected

    return test


_DEPTH_101 = ".".join("1" * 101)

# (line, message): each line alone is refused with this RuleSyntaxError,
# which names the line, why it is refused, and the line itself.
BAD_LINES = [
    ("verdict > 80", "line 1: unknown rule 'verdict': 'verdict > 80'"),
    ("OVERALL > 80", "line 1: unknown rule 'OVERALL': 'OVERALL > 80'"),
    ("overall = 80", "line 1: unknown operator '=': 'overall = 80'"),
    ("overall < 80", "line 1: unknown operator '<': 'overall < 80'"),
    ("overall > eighty", "line 1: not a number: 'eighty': 'overall > eighty'"),
    ("overall > 101", "line 1: threshold must be within [0, 100]: 'overall > 101'"),
    ("overall > -1", "line 1: not a number: '-1': 'overall > -1'"),
    ("overall > 80 sideways", "line 1: unknown basis 'sideways': 'overall > 80 sideways'"),
    (
        "overall > 80 weighted extra",
        "line 1: expected 'overall <operator> <number> [basis]': 'overall > 80 weighted extra'",
    ),
    ("overall >", "line 1: expected 'overall <operator> <number> [basis]': 'overall >'"),
    ("overall", "line 1: expected 'overall <operator> <number> [basis]': 'overall'"),
    ("paragraph > 50", "line 1: expected 'paragraph <path> <operator> <number>': 'paragraph > 50'"),
    ("paragraph 1.x > 50", "line 1: bad section number '1.x': 'paragraph 1.x > 50'"),
    ("paragraph 1.0 > 50", "line 1: bad section number '1.0': 'paragraph 1.0 > 50'"),
    (
        "paragraph 1.2 == 99",
        "line 1: '==' rules only exist for a section's full score of 100: 'paragraph 1.2 == 99'",
    ),
    ("paragraph 1.2 = 100", "line 1: unknown operator '=': 'paragraph 1.2 = 100'"),
    (
        "paragraph 1.2 >= 100 weighted",
        "line 1: expected 'paragraph <path> <operator> <number>': 'paragraph 1.2 >= 100 weighted'",
    ),
    ("overall == 100", "line 1: '==' rules only exist for a section's full score of 100: 'overall == 100'"),
    ("paragraph 1.2 >= 100.5", "line 1: threshold must be within [0, 100]: 'paragraph 1.2 >= 100.5'"),
    ("paragraph 1.2 >= nan", "line 1: not a number: 'nan': 'paragraph 1.2 >= nan'"),
    # <number> is ASCII digits with an optional decimal part only.
    ("overall > \u0668\u0660", "line 1: not a number: '\u0668\u0660': 'overall > \u0668\u0660'"),
    ("paragraph 1 >= \uff15\uff10", "line 1: not a number: '\uff15\uff10': 'paragraph 1 >= \uff15\uff10'"),
    ("overall > 1_0", "line 1: not a number: '1_0': 'overall > 1_0'"),
    ("overall > 1e1", "line 1: not a number: '1e1': 'overall > 1e1'"),
    # U+0663 ARABIC-INDIC DIGIT THREE: not a section number, as in a heading.
    ("paragraph \u0663 > 50", "line 1: bad section number '\u0663': 'paragraph \u0663 > 50'"),
    # A path no policy can hold is a bad section number, not an unknown one.
    (
        f"paragraph {_DEPTH_101} > 50",
        f"line 1: bad section number '{_DEPTH_101}': 'paragraph {_DEPTH_101} > 50'",
    ),
]


class TestParseRules:
    test_overall_strict_default_weighted = _rules_text("overall > 80\n", [AcceptanceRule(">", 80.0)])
    test_overall_inclusive_unweighted = _rules_text(
        "overall >= 62.5 unweighted\n", [AcceptanceRule(">=", 62.5, None, False)]
    )
    test_explicit_weighted_basis = _rules_text("overall > 70 weighted\n", [AcceptanceRule(">", 70.0)])
    test_paragraph_minimum = _rules_text("paragraph 1.2 > 50\n", [_paragraph("1.2", ">", 50.0)])
    test_paragraph_inclusive = _rules_text("paragraph 4 >= 99.5\n", [_paragraph("4", ">=", 99.5)])
    test_paragraph_exact = _rules_text("paragraph 1.2.3 == 100\n", [_paragraph("1.2.3", "==", 100.0)])
    test_comments_and_blanks_ignored = _rules_text(
        "# require a strong match\n\noverall > 80\n  # indented remark\n", [AcceptanceRule(">", 80.0)]
    )
    test_multiple_rules_in_order = _rules_text(
        "overall > 80\nparagraph 1 == 100\n", [AcceptanceRule(">", 80.0), _paragraph("1", "==", 100.0)]
    )
    test_empty_text_gives_no_rules = _rules_text("", [])

    @pytest.mark.parametrize(
        "line",
        [
            "overall > 80 weighted",
            "overall >= 62.5 unweighted",
            "paragraph 1.2 > 50",
            "paragraph 4 >= 99.5",
            "paragraph 1.2.3 == 100",
            "overall > 99.99999 weighted",
            "paragraph 1 >= 12.3456789",
            "overall >= 0.00001 weighted",
        ],
    )
    def test_description_parses_back_to_the_rule(self, line):
        (rule,) = parse_rules(line)
        assert rule.describe() == line
        assert parse_rules(rule.describe()) == [rule]

    def test_module_docstring_example_parses(self):
        example = cpcompat.acceptance.__doc__.split("ignored:\n\n", 1)[1].split("\n\n", 1)[0]
        assert [rule.describe() for rule in parse_rules(example)] == [
            "overall > 80 weighted",
            "overall >= 60 unweighted",
            "paragraph 1.2 > 50",
            "paragraph 4.1 == 100",
        ]


class TestRuleConstruction:
    @pytest.mark.parametrize(
        "args, why",
        [
            (("<", 80.0), "unknown operator"),
            (("=", 100.0, NumberPath.parse("1")), "unknown operator"),
            ((">", 100.5), "within \\[0, 100\\]"),
            ((">=", -0.5, NumberPath.parse("1")), "within \\[0, 100\\]"),
            (("==", 100.0), "'==' rules only exist"),
            (("==", 99.0, NumberPath.parse("1")), "'==' rules only exist"),
            ((">", 50.0, NumberPath.parse("1"), False), "take no basis"),
            ((">", 50.0, "1.2"), "path must be a NumberPath or None"),
            ((">", "50"), "threshold must be an int or float"),
            ((">", True), "threshold must be an int or float"),
            ((">", 50.0, None, "no"), "weighted must be a bool"),
        ],
    )
    def test_invalid_rules_are_refused(self, args, why):
        with pytest.raises(ValueError, match=why):
            AcceptanceRule(*args)

    def test_refusal_of_a_parsed_line_names_the_line(self):
        with pytest.raises(RuleSyntaxError, match="^line 2: '==' rules only exist.*'overall == 100'"):
            parse_rules("overall > 50\noverall == 100\n")


class TestParseRuleErrors:
    @pytest.mark.parametrize("line, message", BAD_LINES, ids=[line for line, _ in BAD_LINES])
    def test_bad_lines_raise_syntax_errors(self, line, message):
        with pytest.raises(RuleSyntaxError) as raised:
            parse_rules(line + "\n")
        assert str(raised.value) == message

    test_error_names_line_number = _rules_text(
        "overall > 80\n# fine\nnonsense here\n", "line 3: unknown rule 'nonsense': 'nonsense here'"
    )

    def test_section_numbers_are_ascii_digits(self, tmp_path, capsys):
        # U+0663 ARABIC-INDIC DIGIT THREE: no section number in a rule, as in
        # a heading, even where the policy has a section 3.
        line = "paragraph \u0663 > 50\n"
        policy = tmp_path / "p.txt"
        policy.write_text("1 ONE\n2 TWO\n3 THREE\na) MUST x\n", encoding="utf-8")
        rules = tmp_path / "rules.txt"
        rules.write_text(line, encoding="utf-8")
        assert main(["compare", str(policy), str(policy), "--rules", str(rules)]) == 4
        assert "bad section number" in capsys.readouterr().err

    def test_section_number_past_the_depth_limit(self, tmp_path, capsys):
        # A path no policy can hold is a bad section number, not an unknown one.
        dotted = ".".join(["1"] * (MAX_DEPTH + 1))
        line = f"paragraph {dotted} > 50\n"
        policy = tmp_path / "p.txt"
        policy.write_text("1 ONE\na) MUST x\n", encoding="utf-8")
        rules = tmp_path / "rules.txt"
        rules.write_text(line, encoding="utf-8")
        assert main(["compare", str(policy), str(policy), "--rules", str(rules)]) == 4
        assert "bad section number" in capsys.readouterr().err

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
        assert verdict.failures[0].rule == AcceptanceRule(">", 80.0)


class TestEvaluateProperties:
    @settings(max_examples=1000, deadline=None)
    @given(pair=policy_pairs(), low=st.floats(0, 100), high=st.floats(0, 100))
    def test_acceptance_is_monotone_in_threshold(self, pair, low, high):
        policy_a, policy_b = pair
        low, high = sorted((low, high))
        rule_low = AcceptanceRule(">", low)
        rule_high = AcceptanceRule(">", high)
        for mode in ComparisonMode:
            report = compare(policy_a, policy_b, mode)
            if evaluate(report, [rule_high]).accepted:
                assert evaluate(report, [rule_low]).accepted

    @settings(max_examples=200, deadline=None)
    @given(pair=policy_pairs())
    def test_exact_100_accepts_what_at_least_100_accepts(self, pair):
        policy_a, policy_b = pair
        # No score exceeds 100, which is why "==" needs no code of its own.
        for mode in ComparisonMode:
            report = compare(policy_a, policy_b, mode)
            for row in report.paragraph_scores:
                exact = parse_rules(f"paragraph {row.path} == 100")
                at_least = parse_rules(f"paragraph {row.path} >= 100")
                assert evaluate(report, exact).accepted == evaluate(report, at_least).accepted

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
