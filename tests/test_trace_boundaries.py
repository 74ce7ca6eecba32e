"""The names the benchmark's traced run wraps (bench/spans.py) must exist
and must be reached.

The tracer replaces each of these attributes with a timing wrapper and
fails if one is missing or never fires, so renaming or inlining one of
them, or calling around it, breaks ``bench/run.py --trace 1``. These tests
catch that in the unit suite.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

import cpcompat.comparison
import cpcompat.merger
from cpcompat.acceptance import evaluate
from cpcompat.model import ComparisonMode
from cpcompat.parser import parse_policy

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from spans import BOUNDARIES, boundary_name  # noqa: E402


@pytest.mark.parametrize(
    "owner, attribute",
    [(owner, attribute) for owner, attribute, _ in BOUNDARIES],
    ids=[boundary_name(owner, attribute) for owner, attribute, _ in BOUNDARIES],
)
def test_boundary_is_an_attribute_of_its_owner(owner, attribute):
    # The tracer looks the name up in the owner's own namespace, so a name
    # inherited or reached some other way would not do.
    assert callable(vars(owner).get(attribute))


# Calls from one module into another that compare and merge make only
# through the calling module's globals.
CROSSINGS = [
    (cpcompat.comparison, "score_paragraph_options"),
    (cpcompat.comparison, "score_option_lists"),
    (cpcompat.merger, "match_options"),
]

# Sections 1 and 2 exist on both sides, 1.1 only in A, 1.2 and 3 only in B.
POLICY_A = "1 TOP\na) MUST x\n1.1 Only A\na) MUST y\n2 SHARED\na) MUST z\n"
POLICY_B = "1 TOP\na) RECOMMENDED x\n1.2 Only B\na) MUST w\n2 SHARED\na) MUST z\n3 EXTRA\n"


def test_crossings_fire_on_compare_and_merge(monkeypatch):
    calls: Counter = Counter()
    for owner, attribute in CROSSINGS:
        name = f"{owner.__name__}.{attribute}"
        original = vars(owner)[attribute]

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, counted)

    policy_a, _ = parse_policy(POLICY_A, name="A")
    policy_b, _ = parse_policy(POLICY_B, name="B")
    mode = ComparisonMode.MERGE
    report = cpcompat.comparison.compare(policy_a, policy_b, mode)
    cpcompat.merger.merge(policy_a, policy_b, report, evaluate(report, []))

    assert sorted(calls) == sorted(f"{o.__name__}.{a}" for o, a in CROSSINGS)
    assert all(count > 0 for count in calls.values()), calls
