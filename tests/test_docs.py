"""The documentation agrees with the package.

Each Python example is executed with the names it assumes already bound:
``text_a`` and ``text_b`` hold two policies, and ``report`` is their
comparison, which has the sections 1 and 6.1 the examples name. The JSON
report schema of CLI.md lists the keys the report writer writes, and
FORMAT.md's diagnostics tables list the codes the parser reports.
"""

from __future__ import annotations

import ast
import json
import re
import textwrap
from pathlib import Path

import pytest

import cpcompat
from cpcompat import ComparisonMode, compare, parse_policy, report_to_json

ROOT = Path(__file__).resolve().parents[1]

TEXT_A = "1 SCOPE\na) MUST x\n6 OPERATIONS\n6.1 Keys\na) MUST use hardware modules\n"
TEXT_B = "1 SCOPE\na) RECOMMENDED x\n6 OPERATIONS\n6.1 Keys\na) MUST use hardware modules\n"


def section(document: str, heading: str) -> str:
    """The text under ``## heading`` of a Markdown file."""
    text = (ROOT / document).read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def python_block(document: str, heading: str) -> str:
    """The first ```python block under ``## heading`` of a Markdown file."""
    return re.search(r"```python\n(.*?)```", section(document, heading), re.DOTALL).group(1)


def docstring_example() -> str:
    return textwrap.dedent(cpcompat.__doc__.split("Typical library use:\n", 1)[1])


EXAMPLES = {
    "README.md Library use": lambda: python_block("README.md", "Library use"),
    "RULES.md Library use": lambda: python_block("RULES.md", "Library use"),
    "cpcompat docstring": docstring_example,
}


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    policy_a, _ = parse_policy(TEXT_A, name="ours")
    policy_b, _ = parse_policy(TEXT_B, name="theirs")
    report = compare(policy_a, policy_b, ComparisonMode.MERGE)
    assert report.find(cpcompat.NumberPath.parse("6.1")) is not None
    namespace = {"text_a": TEXT_A, "text_b": TEXT_B, "report": report}
    exec(compile(EXAMPLES[name](), name, "exec"), namespace)


def test_report_schema_tables_list_the_written_keys():
    """CLI.md's three schema tables (top level, a paragraphs row, a
    diagnostics entry) name the keys of the report, in the written order."""
    tables = [
        re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE)
        for table in section("CLI.md", "JSON report schema").split("\n\n")
        if table.startswith("| Field |")
    ]
    report = compare(
        parse_policy("1 A\na) MUST x\n", name="ours")[0],
        parse_policy("2 B\n", name="theirs")[0],
        ComparisonMode.MERGE,
    )
    data = json.loads(report_to_json(report))
    assert tables == [list(data), list(data["paragraphs"][0]), list(data["diagnostics"][0])]


def test_diagnostics_tables_list_the_parser_codes():
    """FORMAT.md's Errors table names the first argument of every
    ``error(...)`` call in parser.py, and its Warnings table that of every
    ``warn(...)`` call."""
    tree = ast.parse((ROOT / "src" / "cpcompat" / "parser.py").read_text(encoding="utf-8"))
    codes = {"error": set(), "warn": set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in codes:
            codes[node.func.id].add(ast.literal_eval(node.args[0]))
    assert codes["error"] and codes["warn"]
    tables = {
        heading: set(re.findall(r"^\| `(\w+)` +\|", text, re.MULTILINE))
        for heading, text in (
            part.split("\n", 1) for part in section("FORMAT.md", "Diagnostics").split("### ")[1:]
        )
    }
    assert tables == {"Errors": codes["error"], "Warnings": codes["warn"]}
