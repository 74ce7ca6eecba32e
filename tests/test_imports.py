"""Every name a cpcompat module imports is used there or exported, and
every module parses as the oldest Python that pyproject.toml allows.

An import left behind by a refactor keeps a dead dependency between
modules and hides where a helper is really used. A standard library
module that serves one function is imported in that function, so that
starting the CLI does not load it.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import cpcompat

SOURCES = sorted(Path(cpcompat.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used and name not in exported
    ]


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used_or_exported(source):
    tree = ast.parse(source.read_text(encoding="utf-8"), filename=str(source))
    assert _unused_imports(tree) == []


@pytest.mark.parametrize("source", SOURCES, ids=lambda path: path.name)
def test_source_parses_as_python_3_10(source):
    # requires-python is ">=3.10". This checks syntax only, such as
    # ``except*``, and as far as ast's feature_version goes; it cannot tell
    # whether a standard library name or argument used here exists in 3.10.
    ast.parse(source.read_text(encoding="utf-8"), filename=str(source), feature_version=(3, 10))


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from typing import NamedTuple\n"
        "from .model import normalize_phrase, weighted_mean\n"
        "import os.path\n"
        "__all__ = ['weighted_mean']\n"
    )
    assert _unused_imports(tree) == ["line 1: NamedTuple", "line 2: normalize_phrase", "line 3: os"]


def test_the_cli_loads_without_decimal_json_or_typing():
    # -S: no site hook, whose imports belong to the environment.
    code = (
        f"import sys; sys.path.insert(0, {str(Path(cpcompat.__file__).parents[1])!r}); import cpcompat.cli; "
        "print(sorted({'decimal', 'json', 'typing'} & sys.modules.keys()))"
    )
    child = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")


def test_the_cli_loads_without_dataclasses_inspect_or_string():
    # Importing dataclasses loads inspect, and with it ast, dis and tokenize.
    code = (
        f"import sys; sys.path.insert(0, {str(Path(cpcompat.__file__).parents[1])!r}); import cpcompat.cli; "
        "print(sorted({'dataclasses', 'inspect', 'string'} & sys.modules.keys()))"
    )
    child = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert (child.returncode, child.stdout, child.stderr) == (0, "[]\n", "")
