"""Every name a public ``__all__`` lists resolves, so star imports work.

A stale entry leaves ``import cpcompat`` working but breaks
``from cpcompat import *``.
"""

from __future__ import annotations

import importlib
import pkgutil

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
