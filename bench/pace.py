"""The host's pace, read from a fixed pure-Python kernel.

The benchmark runs on a shared host whose speed drifts by a fifth or more
over seconds and minutes, in CPU time as much as in wall time. Two runs of
the same code a few minutes apart then differ by more than any useful
bound. So the benchmark times this kernel, which never changes, right
before and right after each operation, and scales the operation's time by
the kernel's reference time over the mean of those two ticks. A scaled
time reads as the operation's seconds on the reference host at its usual
pace.

The kernel does the kinds of work the program does, on a working set of a
few thousand small objects: it splits and matches lines with a regular
expression, builds objects, counts their phrases into a dict, pairs them
up in a nested loop on a string attribute, and sorts and joins strings.
It uses nothing of cpcompat, so no change to the program moves it.
"""

from __future__ import annotations

import random
import re
import time

# The kernel's median time on the reference host (two shared vCPUs of an
# Intel Xeon, Python 3.11.7) at its usual pace.
REFERENCE_S = 0.018

_LINE_RE = re.compile(r"^([a-z])\)\s+(MUST|SHOULD|MAY)\s+(.+)$")


def _lines() -> list[str]:
    rng = random.Random(0)
    return [
        f"{chr(97 + i % 26)}) {('MUST', 'SHOULD', 'MAY')[i % 3]} Keep  record {rng.randrange(3000)} of {i % 7}"
        for i in range(6000)
    ]


_LINES = _lines()


class _Option:
    __slots__ = ("label", "keyword", "phrase")

    def __init__(self, label: str, keyword: str, phrase: str) -> None:
        self.label = label
        self.keyword = keyword
        self.phrase = phrase


def kernel() -> int:
    """One unit of fixed work; returns a checksum so none of it is skipped."""
    options = []
    for line in _LINES:
        label, keyword, phrase = _LINE_RE.match(line).groups()
        options.append(_Option(label, keyword, " ".join(phrase.lower().split())))
    counts: dict[str, int] = {}
    for option in options:
        counts[option.phrase] = counts.get(option.phrase, 0) + 1
    rest = options[3000:]
    pairs = 0
    for a in options[:100]:
        for b in rest:
            if a.phrase == b.phrase:
                pairs += 1
                break
    text = "\n".join(sorted(f"{o.label}:{o.phrase}" for o in options[:1000]))
    return pairs + len(counts) + len(text)


def tick() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def warm_up() -> None:
    for _ in range(3):
        kernel()


def factor(ticks: list[float], index: int) -> float:
    """What a time measured between ticks ``index`` and ``index + 1`` is
    scaled by: the reference time over the mean of those two ticks."""
    return REFERENCE_S / ((ticks[index] + ticks[index + 1]) / 2)
