"""The documentation agrees with the package.

Each Python example is executed with the names it assumes already bound:
``text_a`` and ``text_b`` hold two policies, and ``report`` is their
comparison, which has the sections 1 and 6.1 the examples name. README's
Library use or RULES.md names every name the package exports. The JSON
report schema of CLI.md lists the keys the report writer writes, and
FORMAT.md's diagnostics tables list the codes the parser reports. CLI.md's
synopsis of each command names the options of its ``--help``, and the
shell transcripts of README's quick start and CLI.md's ``compare`` show
what ``main`` writes to stderr for README's two policies.
"""

from __future__ import annotations

import ast
import json
import re
import shlex
import textwrap
from pathlib import Path

import pytest

import cpcompat
from cpcompat import ComparisonMode, compare, parse_policy, report_to_json
from cpcompat.cli import main

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


def code_names(text: str) -> set[str]:
    """The words in the code spans and code blocks of Markdown text."""
    code = re.findall(r"```.*?```|`[^`\n]+`", text, re.DOTALL)
    return set(re.findall(r"\w+", " ".join(code)))


def test_every_exported_name_is_documented():
    """README's Library use or RULES.md names each name of cpcompat.__all__."""
    documented = code_names(section("README.md", "Library use"))
    documented |= code_names((ROOT / "RULES.md").read_text(encoding="utf-8"))
    assert sorted(set(cpcompat.__all__) - documented) == []


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


def diagnostic_tables() -> dict[str, set[str]]:
    """The codes of FORMAT.md's diagnostics tables, by heading: ``Errors``
    and ``Warnings``."""
    return {
        heading: set(re.findall(r"^\| `(\w+)` +\|", text, re.MULTILINE))
        for heading, text in (
            part.split("\n", 1) for part in section("FORMAT.md", "Diagnostics").split("### ")[1:]
        )
    }


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
    assert diagnostic_tables() == {"Errors": codes["error"], "Warnings": codes["warn"]}


@pytest.mark.parametrize("command", ["validate", "compare", "merge"])
def test_synopsis_names_the_options_of_help(command, capsys):
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    synopsis = re.search(r"```\n(.*?)```", section("CLI.md", f"cpcompat {command}"), re.DOTALL)
    assert usage.startswith(f"usage: cpcompat {command} ")
    assert set(re.findall(r"--[\w-]+", synopsis.group(1))) == set(re.findall(r"--[\w-]+", usage))


def code_blocks(document: str, heading: str) -> list[str]:
    return re.findall(r"```\w*\n(.*?)```", section(document, heading), re.DOTALL)


def transcript(document: str, heading: str) -> str:
    """The section's first block of ``$ `` commands, followed by the block
    after it unless that one starts with a command too: README shows a
    command's output in a block of its own."""
    blocks = code_blocks(document, heading)
    index = next(i for i, block in enumerate(blocks) if block.startswith("$ "))
    following = [block for block in blocks[index + 1 : index + 2] if not block.startswith("$ ")]
    return "".join([blocks[index], *following])


def readme_policies() -> list[str]:
    """README's two policies, ours and theirs, in the quick start."""
    blocks = code_blocks("README.md", "Quick start")
    policies = [block for block in blocks if block.startswith("1 ")]
    assert len(policies) == 2
    return policies


TRANSCRIPTS = {
    "README.md Quick start": ("README.md", "Quick start"),
    "CLI.md cpcompat compare": ("CLI.md", "cpcompat compare"),
}


@pytest.mark.parametrize("name", TRANSCRIPTS)
def test_transcript_shows_what_main_writes_to_stderr(name, tmp_path, monkeypatch, capsys):
    """Replays a transcript over README's two policies, ours.txt and
    theirs.txt: ``$ cat FILE`` writes the lines after it to FILE, the lines
    after ``$ cpcompat ...`` are what main writes to stderr, and those after
    ``$ echo $?`` its exit code."""
    monkeypatch.chdir(tmp_path)
    ours, theirs = readme_policies()
    Path("ours.txt").write_text(ours, encoding="utf-8")
    Path("theirs.txt").write_text(theirs, encoding="utf-8")
    shown = transcript(*TRANSCRIPTS[name])
    steps = re.findall(r"^\$ (.*)\n((?:(?!\$ ).*\n)*)", shown, re.MULTILINE)
    assert any(command.startswith("cpcompat ") for command, _ in steps)
    code = None
    for command, output in steps:
        words = shlex.split(command)
        if words[0] == "cat":
            Path(words[1]).write_text(output, encoding="utf-8")
        elif words[0] == "cpcompat":
            code = main(words[1:])
            assert capsys.readouterr().err == output, command
        else:
            assert (command, output) == ("echo $?", f"{code}\n")
