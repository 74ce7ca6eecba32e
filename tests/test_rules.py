"""Tests for acceptance rule parsing and verdict evaluation.

Each rules text example is a ``_rules_text`` row, and each verdict example
an ``_evaluated`` row: the whole verdict of a rules text on two compared
policy texts in one equality, with scores written from README's "How
scoring works" and compared exactly.
"""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpcompat.acceptance
from cpcompat.acceptance import (
    AcceptanceRule, RuleError, RuleFailure, RuleSyntaxError, UnknownPathError, Verdict, evaluate, parse_rules
)
from cpcompat.cli import main
from cpcompat.comparison import compare
from cpcompat.model import MAX_DEPTH, ComparisonMode, NumberPath

from conftest import WORKED_POLICY_A_TEXT as WORKED_A, WORKED_POLICY_B_TEXT as WORKED_B, policy_from
from strategies import policy_pairs
from test_docs import section

MERGE = ComparisonMode.MERGE


# Two top-level sections, one perfect and one hopeless, with weights 3
# and 1: weighted (100 * 3 + 0 * 1) / 4, unweighted (100 + 0) / 2.
MIXED_A, MIXED_B = "1 GOOD 3\na) MUST x\n2 BAD 1\na) MUST y\n", "1 GOOD 3\na) MUST x\n2 BAD 1\na) MUST z\n"


@pytest.fixture
def report_mixed():
    return compare(policy_from(MIXED_A, "A"), policy_from(MIXED_B, "B"), MERGE)


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

    # abs() writes the -0.0 that the range check admits as 0, which parses.
    def test_negative_zero_threshold_describes_as_0(self):
        rule = AcceptanceRule(">", -0.0)
        assert (rule.describe(), parse_rules(rule.describe())) == ("overall > 0 weighted", [rule])

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


# Every (rules, failed rules) pair of the verdict rows.
EVALUATED = []


def _evaluated(a_text, b_text, rules_text, failures):
    """A test that ``a_text`` as policy "A", compared with ``b_text`` as "B"
    under merge, meets the rules of ``rules_text`` with exactly
    ``failures``, in rule order, each (rule line, observed score, the score
    as the failure's message writes it); or that evaluating raises an
    UnknownPathError whose message is ``failures``."""
    rules = parse_rules(rules_text)
    expected = failures
    if not isinstance(failures, str):
        failed = [RuleFailure(parse_rules(line)[0], actual) for line, actual, _ in failures]
        EVALUATED.append((rules, [failure.rule for failure in failed]))
        messages = [f"score {shown} does not satisfy '{line}'" for line, _, shown in failures]
        expected = (Verdict(tuple(failed)), not failed, messages)

    def test(self):
        report = compare(policy_from(a_text, "A"), policy_from(b_text, "B"), MERGE)
        try:
            verdict = evaluate(report, rules)
        except UnknownPathError as error:
            got = str(error)
        else:
            got = (verdict, verdict.accepted, [failure.message for failure in verdict.failures])
        assert got == expected

    return test


# The worked example scores (80 + 50) / 4 under merge with AND, and 80, its
# best pair, with OR.
WORKED_OR_A, WORKED_OR_B = (text.replace("Connection AND", "Connection OR") for text in (WORKED_A, WORKED_B))
WORKED, WORKED_OR = (80.0 + 50.0) / 4, 100 * (1 - abs(1.0 - 0.8))
# Section 1 has no options of its own, a vacuous 100, and one child at 0.
NESTED_A, NESTED_B = "1 TOP\n1.1 SUB\na) MUST x\n", "1 TOP\n1.1 SUB\na) MUST y\n"
# RECOMMENDED x against NOT x, a float just under 20.
NOISE_A, NOISE_B = "1 T\na) RECOMMENDED x\n", "1 T\na) NOT x\n"
# Weight 10,000,000 at 100 and weight 1 at 0: four decimals round it to 100.
HEAVY_A, HEAVY_B = "1 GOOD 10000000\na) MUST x\n2 BAD\na) MUST y\n", "1 GOOD\na) MUST x\n2 BAD\na) MUST z\n"


class TestEvaluate:
    test_no_rules_accepts = _evaluated(WORKED_A, WORKED_B, "", [])
    test_failed_overall_rule = _evaluated(
        WORKED_A, WORKED_B, "overall > 80", [("overall > 80 weighted", WORKED, "32.5000")]
    )
    test_strict_threshold_rejects_equal_score = _evaluated(
        WORKED_OR_A, WORKED_OR_B, "overall > 80", [("overall > 80 weighted", WORKED_OR, "80.0000")]
    )
    test_inclusive_threshold_accepts_equal_score = _evaluated(WORKED_OR_A, WORKED_OR_B, "overall >= 80", [])
    test_weighted_and_unweighted_bases = _evaluated(
        MIXED_A, MIXED_B, "overall > 60 weighted\noverall > 60 unweighted",
        [("overall > 60 unweighted", (100.0 + 0.0) / 2, "50.0000")],
    )
    # Section 1's own score of 100 would pass ">= 100"; its combined score
    # (100 + 0 * 1) / 2 does not.
    test_paragraph_rule_reads_combined_score = _evaluated(
        NESTED_A, NESTED_B, "paragraph 1 >= 50\nparagraph 1 >= 100",
        [("paragraph 1 >= 100", (100.0 + 0.0 * 1) / 2, "50.0000")],
    )
    test_paragraph_exact_rule = _evaluated(
        MIXED_A, MIXED_B, "paragraph 1 == 100\nparagraph 2 == 100", [("paragraph 2 == 100", 0.0, "0.0000")]
    )
    test_unknown_path_raises = _evaluated(
        MIXED_A, MIXED_B, "paragraph 9.9 > 0",
        "rule 'paragraph 9.9 > 0' names section 9.9, which the report does not contain",
    )
    test_all_rules_must_pass = _evaluated(
        MIXED_A, MIXED_B, "overall > 60\nparagraph 1 > 60\nparagraph 2 > 60", [("paragraph 2 > 60", 0.0, "0.0000")]
    )
    test_every_failure_is_reported = _evaluated(
        WORKED_A, WORKED_B, "overall > 90\noverall > 95 unweighted\nparagraph 1 == 100",
        [("overall > 90 weighted", WORKED, "32.5000"), ("overall > 95 unweighted", WORKED, "32.5000"),
         ("paragraph 1 == 100", WORKED, "32.5000")],
    )
    # A model value equals only an instance of its own class, so the row holds
    # only for a Verdict of RuleFailure values.
    test_verdict_is_plain_data = _evaluated(
        MIXED_A, MIXED_B, "overall > 49.5 unweighted\noverall >= 50 unweighted\noverall >= 60 unweighted",
        [("overall >= 60 unweighted", (100.0 + 0.0) / 2, "50.0000")],
    )
    # A score within 1e-9 of the threshold counts as equal to it: in the
    # score's favor for ">=", against it for ">".
    test_noise_counts_for_the_score_under_at_least = _evaluated(NOISE_A, NOISE_B, "overall >= 20", [])
    test_noise_counts_against_the_score_under_strict = _evaluated(
        NOISE_A, NOISE_B, "overall > 19.9999999999",
        [("overall > 19.9999999999 weighted", 100 * (1 - abs(0.8 - 0.0)), "20.0000")],
    )
    test_score_rounded_onto_the_threshold_is_written_in_full = _evaluated(
        HEAVY_A, HEAVY_B, "overall >= 100",
        [("overall >= 100 weighted", (100.0 * 10_000_000 + 0.0 * 1) / 10_000_001, "99.999990000001")],
    )


def _forms(line):
    """The rule forms a rules line stands for: its words less numbers and
    placeholders, one form per basis a ``[weighted|unweighted]`` offers."""
    words = [word for word in line.split() if word[0] not in "<0123456789"]
    if words[-1].startswith("["):
        return {" ".join([*words[:-1], basis]) for basis in words[-1][1:-1].split("|")}
    return {" ".join(words)}


def test_verdict_rows_accept_and_reject_every_documented_rule_form():
    """The rows accept each rule form of RULES.md's File format block, on
    each basis, in one row and reject it in another, so a new form needs
    rows."""
    block = re.search(r"```\n(.*?)```", section("RULES.md", "File format"), re.DOTALL).group(1)
    documented = set().union(*(_forms(line) for line in block.splitlines() if line and not line.startswith("#")))
    accepted, rejected = set(), set()
    for rules, failed in EVALUATED:
        for rule in rules:
            (rejected if rule in failed else accepted).update(_forms(rule.describe()))
    assert (accepted, rejected) == (documented, documented)


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
