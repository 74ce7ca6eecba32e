"""Every name a public ``__all__`` lists resolves, so star imports work.

A stale entry leaves ``import cpcompat`` working but breaks
``from cpcompat import *``. The package's ``__version__`` is the one
pyproject.toml declares.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import cpcompat

MODULES = ["cpcompat"] + [
    f"cpcompat.{info.name}"
    for info in pkgutil.iter_modules(cpcompat.__path__)
    if hasattr(importlib.import_module(f"cpcompat.{info.name}"), "__all__")
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_binds_every_exported_name(module):
    namespace: dict[str, object] = {}
    exec(f"from {module} import *", namespace)
    assert set(importlib.import_module(module).__all__) <= namespace.keys()


def test_every_module_with_exports_is_checked():
    assert set(MODULES) >= {
        "cpcompat",
        "cpcompat.acceptance",
        "cpcompat.cli",
        "cpcompat.comparison",
        "cpcompat.merger",
        "cpcompat.parser",
        "cpcompat.scoring",
    }


def test_version_matches_pyproject():
    # A regex, not tomllib, which CPython 3.10 lacks.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert cpcompat.__version__ == version
