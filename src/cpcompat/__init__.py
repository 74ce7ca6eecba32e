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
from .comparison import compare, report_to_json
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
    weighted_mean,
)
from .parser import ParseDiagnostic, Severity, parse_policy, render_policy

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
    "compare",
    "evaluate",
    "merge",
    "parse_policy",
    "parse_rules",
    "render_policy",
    "report_to_json",
    "weighted_mean",
]

__version__ = "0.1.0"
