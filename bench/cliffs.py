"""Measure the program's known scaling cliffs.

    python3 bench/cliffs.py

Prints one JSON object:

* ``match_growth`` - median wall time of ``cpcompat compare`` (in process)
  on a pair of one-section policies at several option counts per side,
  half the phrases shared. ``scoring.match_options`` pairs options in
  O(n*m), so doubling n should take about four times as long.
* ``render_limit`` - the largest option count ``render_policy`` accepts in
  one section, and what ``cpcompat merge`` does one option past it.
* ``recursion_limit`` - the smallest chain nesting depth at which
  ``parse_policy`` stops returning and raises instead, with the
  interpreter's recursion limit.

These are why the ``wide`` workload merges no accepted pair and why
``deep`` stops at depth 8.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

from corpus import WORDS, Section, render
from run import BUILD, load_program


def one_section_pair(count: int, rng: random.Random) -> tuple[str, str]:
    phrases: dict[str, None] = {}
    while len(phrases) < count * 3 // 2:
        phrases.setdefault(" ".join(rng.choices(WORDS, k=4)))
    pool = list(phrases)
    shared = pool[: count // 2]
    texts = []
    for own in (pool[count // 2 : count], pool[count:]):
        options = [("MUST", p) for p in shared + own]
        rng.shuffle(options)
        texts.append(render([Section((1,), "WIDE", connective="AND", options=options, labeled=False)]))
    return texts[0], texts[1]


def quiet_main(cli, argv: list[str]):
    with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            outcome = cli.main(argv)
        except Exception as exc:  # the cliff being measured
            outcome = f"raises {type(exc).__name__}: {exc}"
        return outcome, time.perf_counter() - start


def match_growth(cli, work: Path, counts=(500, 1000, 2000, 4000)) -> dict:
    rng = random.Random("cliffs")
    out = {}
    for count in counts:
        a, b = work / f"wide{count}a.txt", work / f"wide{count}b.txt"
        for path, text in zip((a, b), one_section_pair(count, rng)):
            path.write_text(text, encoding="utf-8")
        times = [quiet_main(cli, ["compare", str(a), str(b), "--report", str(work / "r.json")])[1] for _ in range(3)]
        out[count] = statistics.median(times)
    return {
        "options_per_side_to_compare_s": out,
        "growth_per_doubling": [out[counts[i + 1]] / out[counts[i]] for i in range(len(counts) - 1)],
    }


def render_limit(cli, work: Path) -> dict:
    from cpcompat.parser import parse_policy, render_policy

    largest = 0
    for count in range(20, 40):
        options = [(None, f"control {WORDS[i]}") for i in range(count)]
        policy, _ = parse_policy(render([Section((1,), "LIMIT", options=options, labeled=False)]))
        try:
            render_policy(policy)
        except ValueError:
            break
        largest = count
    path = work / "over.txt"
    options = [(None, f"control {WORDS[i]}") for i in range(largest + 1)]
    path.write_text(render([Section((1,), "LIMIT", options=options, labeled=False)]), encoding="utf-8")
    outcome, _ = quiet_main(cli, ["merge", str(path), str(path), "--out", str(work / "merged.txt")])
    return {"largest_rendered_section": largest, f"merge_of_{largest + 1}_options": outcome}


def recursion_limit() -> dict:
    from cpcompat.parser import parse_policy

    def chain(depth: int) -> str:
        return "".join(".".join(["1"] * d) + (" ROOT\n" if d == 1 else " Level\n") for d in range(1, depth + 1))

    def fails(depth: int) -> bool:
        try:
            parse_policy(chain(depth))
        except RecursionError:
            return True
        return False

    low, high = 8, 2000  # parses at low, raises at high
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (low, middle) if fails(middle) else (middle, high)
    return {"first_failing_depth": high, "interpreter_recursion_limit": sys.getrecursionlimit()}


def main() -> int:
    cli = load_program()
    work = BUILD / "cpcompat-cliffs"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = {
            "python": sys.version.split()[0],
            "match_growth": match_growth(cli, work),
            "render_limit": render_limit(cli, work),
            "recursion_limit": recursion_limit(),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            BUILD.rmdir()
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
