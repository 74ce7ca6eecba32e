"""Per-section work calls neither CPython's enum module nor the equality,
hashing and ``__replace__`` of the model's value classes.

All of them are Python-level calls. The CLI reads enum members through
their ``_value_`` and ``_name_`` attributes or tables keyed by string, keys
path lookups by segment tuples and builds merged sections with the
Paragraph constructor, so the number of such calls in one ``compare`` or
``merge`` does not grow with the number of sections.

The parser reads an option line inside its line loop, with no call of its
own: the Python-level calls per option line are those of building the
PolicyOption, so the number of calls into parser.py does not grow with the
number of option lines.

Fixed costs are paid once: ``main`` builds its argument parser on its first
call in a process only, and the merge aligns children only where a matched
pair has some, not at every leaf.
"""

from __future__ import annotations

import argparse
import contextlib
import enum
import io
import sys

import pytest

from cpcompat.acceptance import evaluate
from cpcompat.cli import main
from cpcompat.comparison import compare, pair_by_path
from cpcompat.merger import merge
from cpcompat.model import ComparisonMode, Keyword, NumberPath, Paragraph, Policy, PolicyOption, _Frozen
from cpcompat.parser import parse_policy, render_policy

_DUNDERS = frozenset(
    function.__code__
    for function in (_Frozen.__hash__, _Frozen.__eq__, _Frozen.__replace__)
)
_ENUM_FILE = enum.unique.__code__.co_filename
_PARSER_FILE = parse_policy.__code__.co_filename


def _policy_text(top_sections: int, side: str) -> str:
    """Seven sections per top-level section, six of them on both sides with
    the same titles and connectives. The keywords differ and each side has
    an option of its own, so the merge keeps the stricter keyword and flags
    the rest. Section k.2.1.1.1 draws a DEPTH_EXCEEDS_4 warning, and k.3
    exists in B only, so the merge adopts it whole."""
    strong, weak = ("MUST", "OPTIONAL") if side == "a" else ("RECOMMENDED", "NOT")
    options = f"a) {strong} keep logs\nb) {weak} audit yearly\nc) only in {side}\n"
    lines = []
    for top in range(1, top_sections + 1):
        lines.append(f"{top} SECTION {top}\n{options}Connection AND\n")
        lines.append(f"{top}.1 Sub\n{options}Connection OR\n")
        for dotted in (f"{top}.2", f"{top}.2.1", f"{top}.2.1.1", f"{top}.2.1.1.1"):
            lines.append(f"{dotted} Deep\n{options}")
        if side == "b":
            lines.append(f"{top}.3 Extra\n{options}")
    return "".join(lines)


def _counted_calls(argv: list[str]) -> tuple[int, int]:
    """Run the CLI and count the calls of the value classes' equality,
    hashing and __replace__, and of any function in enum.py."""
    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code in _DUNDERS:
                counts[0] += 1
            elif code.co_filename == _ENUM_FILE:
                counts[1] += 1

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            code = main(argv)
        finally:
            sys.setprofile(None)
    assert code == 0
    return counts[0], counts[1]


@pytest.mark.parametrize("command", ["compare", "merge"])
def test_calls_do_not_grow_with_sections(command, tmp_path):
    argvs = []
    for top_sections in (3, 30):  # 20 and 200 sections in all
        files = []
        for side in "ab":
            file = tmp_path / f"{side}{top_sections}.txt"
            file.write_text(_policy_text(top_sections, side), encoding="utf-8")
            files.append(str(file))
        argvs.append([command, *files, "--mode", "merge"])
    # The first run pays enum's one-time calls.
    _counted_calls(argvs[0])
    small, large = (_counted_calls(argv) for argv in argvs)
    assert small == large, f"(dunder, enum.py) calls: {small} at 20 sections, {large} at 200"


def _option_section(form: str, count: int) -> str:
    """Section 1 holding ``count`` option lines of one form: labeled with a
    keyword (as the renderer writes them), unlabeled with a keyword, or bare."""
    phrases = [f"keep record {index}" for index in range(count)]
    if form == "labeled":
        options = tuple(PolicyOption(phrase, Keyword.MUST) for phrase in phrases)
        return render_policy(Policy("P", (Paragraph(NumberPath((1,)), "INTRO", options=options),)))
    keyword = "MUST " if form == "keyword" else ""
    return "1 INTRO\n" + "".join(f"{keyword}{phrase}\n" for phrase in phrases)


def _parser_calls(text: str) -> int:
    """Parse ``text`` and count the calls of functions defined in parser.py."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename == _PARSER_FILE:
            count += 1

    sys.setprofile(profile)
    try:
        policy, diagnostics = parse_policy(text)
    finally:
        sys.setprofile(None)
    assert policy is not None and not diagnostics
    return count


@pytest.mark.parametrize("form", ["labeled", "keyword", "bare"])
def test_parser_calls_do_not_grow_with_option_lines(form):
    small, large = (_parser_calls(_option_section(form, count)) for count in (100, 1100))
    assert small == large, f"parser.py calls: {small} at 100 option lines, {large} at 1,100"


def _calls_of(function, run) -> int:
    """Call ``run()`` and count the calls of ``function``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is function.__code__:
            count += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return count


def test_main_builds_its_argument_parser_once(tmp_path):
    file = tmp_path / "a.txt"
    file.write_text(_policy_text(1, "a"), encoding="utf-8")

    def run():
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["validate", str(file)]) == 0

    run()  # The first call in the process may build it.
    assert _calls_of(argparse.ArgumentParser.__init__, lambda: (run(), run())) == 0


def test_merge_aligns_children_only_where_a_pair_has_some():
    top_sections = 3
    policy_a, policy_b = (parse_policy(_policy_text(top_sections, side))[0] for side in "ab")
    report = compare(policy_a, policy_b, ComparisonMode.MERGE)
    verdict = evaluate(report, [])
    calls = _calls_of(pair_by_path, lambda: merge(policy_a, policy_b, report, verdict))
    # The roots, then in each top-level section k the matched pairs with
    # children: k, k.2, k.2.1 and k.2.1.1. The leaves k.1 and k.2.1.1.1 and
    # B's own k.3 take none.
    assert calls == 1 + 4 * top_sections
