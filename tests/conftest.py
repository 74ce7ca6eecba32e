"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Let test modules import the local oracle/strategies helpers regardless of
# the pytest import mode in use.
sys.path.insert(0, str(Path(__file__).resolve().parent))

from cpcompat.model import (
    Connective,
    NumberPath,
    Paragraph,
    Policy,
    PolicyOption,
)
from cpcompat.parser import parse_policy

# A small but structurally complete policy document: nested sections down to
# depth 4, labeled options with keywords, a Connection line, and comments.
SAMPLE_POLICY_TEXT = """\
1 INTRODUCTION 3
// Scope of the document
1.1 Overview 2
a) MUST provide an overview
b) RECOMMENDED include a diagram
1.2 Document Name and Identification 1
a) MUST state the document name
b) OPTIONAL register an OID
Connection AND
1.3 PKI Participants 2
1.3.1 Certification Authorities 1
1.3.1.1 Root Authorities 1
a) MUST operate offline
2 PUBLICATION AND REPOSITORY RESPONSIBILITIES 1
a) MUST publish the certificate policy
"""


@pytest.fixture
def sample_policy_text() -> str:
    return SAMPLE_POLICY_TEXT


# Single-paragraph policies carrying the worked-example option lists, used by
# comparison, merger, and CLI tests. AND connective, so the expected MERGE
# score is 32.5.
WORKED_POLICY_A_TEXT = """\
1 CERTIFICATE PROFILE 1
a) MUST a
b) MUST b
c) MUST c
Connection AND
"""

WORKED_POLICY_B_TEXT = """\
1 CERTIFICATE PROFILE 1
a) RECOMMENDED a
b) OPTIONAL b
c) RECOMMENDED d
d) RECOMMENDED e
Connection AND
"""


@pytest.fixture
def worked_policy_a_text() -> str:
    return WORKED_POLICY_A_TEXT


@pytest.fixture
def worked_policy_b_text() -> str:
    return WORKED_POLICY_B_TEXT


def find(policy: Policy, dotted: str) -> Paragraph | None:
    """The paragraph of ``policy`` numbered ``dotted``, or None."""
    path = NumberPath.parse(dotted)
    return next((p for p in policy.walk() if p.path == path), None)


def policy_from(text: str, name: str = "P") -> Policy:
    """The policy ``text`` parses to; fails the test if it does not parse."""
    policy, diagnostics = parse_policy(text, name=name)
    assert policy is not None, diagnostics
    return policy


def make_paragraph(
    dotted: str,
    title: str = "Section",
    weight: int = 1,
    options: tuple[PolicyOption, ...] = (),
    connective: Connective = Connective.NONE,
    comments: tuple[str, ...] = (),
    children: tuple[Paragraph, ...] = (),
) -> Paragraph:
    return Paragraph(
        path=NumberPath.parse(dotted),
        title=title,
        weight=weight,
        options=options,
        connective=connective,
        comments=comments,
        children=children,
    )


@pytest.fixture
def paragraph_factory():
    return make_paragraph


@pytest.fixture
def policy_factory():
    def make(name: str, *roots: Paragraph) -> Policy:
        return Policy(name=name, roots=tuple(roots))

    return make
