"""Compatibility analysis for standardized certificate policy documents.

The package parses policy text files into paragraph trees, scores how
well two policies fit together under merger or acquisition semantics,
evaluates acceptance rules over the resulting report, and can emit a
unified policy draft for an accepted pair.

Typical library use:

    from cpcompat import ComparisonMode, compare, parse_policy

    policy_a, _ = parse_policy(text_a, name="ours")
    policy_b, _ = parse_policy(text_b, name="theirs")
    report = compare(policy_a, policy_b, ComparisonMode.MERGE)
    print(report.overall_weighted)
"""

from .acceptance import (
    AcceptanceRule,
    RuleError,
    RuleFailure,
    RuleSyntaxError,
    UnknownPathError,
    Verdict,
    evaluate,
    parse_rules,
)
from .comparison import align, compare, report_to_dict, report_to_json
from .merger import MergeRejectedError, merge
from .model import (
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
    normalize_phrase,
)
from .parser import ParseDiagnostic, Severity, parse_policy, render_policy
from .scoring import (
    child_aggregate,
    combine_with_children,
    match_options,
    score_option_lists,
    score_paragraph_options,
)

__all__ = [
    "AcceptanceRule",
    "ComparisonDiagnostic",
    "ComparisonMode",
    "ComparisonReport",
    "Connective",
    "Keyword",
    "MatchStatus",
    "MergeRejectedError",
    "NumberPath",
    "Paragraph",
    "ParagraphScore",
    "ParseDiagnostic",
    "Policy",
    "PolicyOption",
    "RuleError",
    "RuleFailure",
    "RuleSyntaxError",
    "Severity",
    "UnknownPathError",
    "Verdict",
    "align",
    "child_aggregate",
    "combine_with_children",
    "compare",
    "evaluate",
    "match_options",
    "merge",
    "normalize_phrase",
    "parse_policy",
    "parse_rules",
    "render_policy",
    "report_to_dict",
    "report_to_json",
    "score_option_lists",
    "score_paragraph_options",
]

__version__ = "0.1.0"
