"""Per-section work calls neither CPython's enum module nor the methods that
``dataclass`` generates for NumberPath, nor ``dataclasses.replace``.

All of them are Python-level calls. The CLI reads enum members through
their ``_value_`` and ``_name_`` attributes or tables keyed by string, keys
path lookups by segment tuples and builds merged sections with the
Paragraph constructor, so the number of such calls in one ``compare`` or
``merge`` does not grow with the number of sections.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import io
import sys

import pytest

from cpcompat.cli import main
from cpcompat.model import NumberPath

_DUNDERS = frozenset(
    function.__code__
    for function in (NumberPath.__hash__, NumberPath.__eq__, dataclasses.replace)
)
_ENUM_FILE = enum.unique.__code__.co_filename


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
    """Run the CLI and count the calls of the NumberPath dunders and
    dataclasses.replace, and of any function in enum.py."""
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
