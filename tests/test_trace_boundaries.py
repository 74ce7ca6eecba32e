"""The names the benchmark's traced run wraps (bench/spans.py) must exist.

The tracer replaces each of these attributes with a timing wrapper and
fails if one is missing, so renaming or inlining one of them breaks
``bench/run.py --trace 1``. This test catches that in the unit suite.
"""

from __future__ import annotations

import pytest

import cpcompat.cli
import cpcompat.comparison
import cpcompat.merger
import cpcompat.scoring
from cpcompat.model import ComparisonReport

BOUNDARIES = [
    (cpcompat.cli, "main"),
    (cpcompat.cli, "parse_policy"),
    (cpcompat.cli, "render_policy"),
    (cpcompat.cli, "compare"),
    (cpcompat.cli, "report_to_json"),
    (cpcompat.cli, "parse_rules"),
    (cpcompat.cli, "evaluate"),
    (cpcompat.cli, "merge"),
    (cpcompat.comparison, "score_paragraph_options"),
    (cpcompat.comparison, "score_option_lists"),
    (cpcompat.scoring, "match_options"),
    (cpcompat.merger, "match_options"),
    (ComparisonReport, "find"),
]


@pytest.mark.parametrize(
    "owner, attribute",
    BOUNDARIES,
    ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a in BOUNDARIES],
)
def test_boundary_is_an_attribute_of_its_owner(owner, attribute):
    # The tracer looks the name up in the owner's own namespace, so a name
    # inherited or reached some other way would not do.
    assert callable(vars(owner).get(attribute))

