"""Mutation check: the Tier-1 tests named for each mutant must kill it.

    python3 tests/mutants.py [NAME ...]

Runs every mutant in MUTANTS, or only those named. For each one it copies
``src/`` to a temporary directory, replaces one exact source text, which
must occur exactly once in its file, and runs the mutant's tests with
``-x`` in a child pytest that imports ``cpcompat`` from the copy. The
mutant is killed when the tests fail. Before any mutant, the tests of all
selected mutants run once on an unmutated copy and must pass there, or a
kill would prove nothing.

Exits 0 when every selected mutant is killed, and 1 when one survives, when
the unmutated copy fails, or when a mutant's source text is not found
exactly once: a change that moves or rewrites that code updates the entry.
Standard library only, besides the pytest and hypothesis the tests need.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/cpcompat/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the root of the checkout


MUTANTS = (
    Mutant(
        "sibling order never records the last linked sibling",
        "parser.py",
        "                parent.last = path[-1]\n",
        "                pass\n",
        ("tests/test_parser.py::TestErrors::test_sibling_order_reads_the_last_linked_sibling",),
    ),
    Mutant(
        "weight guard reads the first character of the title",
        "parser.py",
        'if title[-1] in "0123456789":',
        'if title[0] in "0123456789":',
        ("tests/test_parser.py::TestHeadingParsing::test_trailing_integer_is_weight",),
    ),
    Mutant(
        "an error does not mark the parse as failed",
        "parser.py",
        "        nonlocal failed\n        failed = True\n",
        "        nonlocal failed\n",
        ("tests/test_parser.py::TestErrors::test_zero_weight_rejected",),
    ),
    Mutant(
        "paragraph checks its children only when it has none",
        "model.py",
        "        if children:\n",
        "        if not children:\n",
        ("tests/test_model.py::TestParagraph::test_unordered_children",),
    ),
    Mutant(
        "number path accepts bool segments",
        "model.py",
        "if not _INT_ONLY.issuperset(map(type, segments)):",
        "if not {int, bool}.issuperset(map(type, segments)):",
        ("tests/test_model.py::TestNumberPath::test_segment_not_an_int",),
    ),
    Mutant(
        "folded diagnostics report one too few",
        "cli.py",
        '(f" (and {count - 1} more)"',
        '(f" (and {count - 2} more)"',
        ("tests/test_cli.py::TestCompare::test_errors_are_one_line_per_code_too",),
    ),
)


def run_tests(src: Path, tests: list[str], workdir: Path) -> bool:
    """Whether ``tests`` pass with cpcompat imported from ``src``, in the
    tests and in the programs they start. The child runs in ``workdir``, so
    its caches stay out of the checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT), "-o", f"pythonpath={src}",
        *(str(ROOT / test) for test in tests),
    ]
    result = subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True)
    return result.returncode == 0


def main(names: list[str]) -> int:
    unknown = set(names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    selected = [mutant for mutant in MUTANTS if not names or mutant.name in names]
    start = time.perf_counter()
    failures = 0
    with tempfile.TemporaryDirectory() as temp:
        src = Path(temp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({test for mutant in selected for test in mutant.tests})
        if not run_tests(src, tests, Path(temp)):
            print("the tests fail on the unmutated sources", file=sys.stderr)
            return 1
        for mutant in selected:
            path = src / "cpcompat" / mutant.file
            original = path.read_text(encoding="utf-8")
            found = original.count(mutant.old)
            if found != 1:
                print(f"NOT FOUND {mutant.name}: source text occurs {found} times in {mutant.file}")
                failures += 1
                continue
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                survived = run_tests(src, list(mutant.tests), Path(temp))
            finally:
                path.write_text(original, encoding="utf-8")
            print(f"{'SURVIVED' if survived else 'killed'} {mutant.name}")
            failures += survived
    print(f"{len(selected)} mutants, {failures} not killed, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
