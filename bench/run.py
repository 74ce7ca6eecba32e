"""Benchmark of the cpcompat command line on generated policy corpora.

    python3 bench/run.py --workload rfc3647|wide|deep --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The program is imported from ./src;
the inputs are generated from the seed under ./.bench_build before any
timing starts and removed at the end.

One client runs ``cpcompat.cli.main`` in process, in a closed loop over
the workload's cycle of compare and merge operations, for S seconds. Each
call's wall time is measured with stderr captured. After each call, outside
the timed region, the exit code and the written report or draft are
checked against the independent reference in reference.py. ``setup_s`` and
``peak_rss_mb`` come from fresh ``python -m cpcompat`` child processes.

Every timing is scaled to the reference pace of the host (pace.py): a fixed
kernel is timed between operations and between launches, and each
operation's time is multiplied by the kernel's reference time over the
mean of the ticks just before and just after it. The table also gives the
unscaled medians.

With ``--trace 1`` half the operations run with spans around the layer
boundaries (spans.py), alternating every two operations; the per-layer
metrics come from those operations, and ``trace.overhead_ratio`` compares
their compare times with the untraced ones.

The last line of stdout is the JSON result: ``correct``, ``attempted``,
``failed`` and ``metrics``, holding the end-to-end metrics of
BENCHMARK.json with ``--trace 0`` and its per-layer metrics with
``--trace 1``. The lines before it are a table of every metric with its
sample count, and a SHA-256 digest of all reports and drafts, which should
not change while the program's outputs do not.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pace
import reference
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_LAUNCHES = 15
CHILD_TIMEOUT_S = 120.0
# The whole run must end within 180 s; the timed loop stops by then even if
# --seconds asks for more.
LOOP_DEADLINE_S = 140.0


def load_program():
    """Import cpcompat from this checkout's src/, and nothing else."""
    if not (SRC / "cpcompat" / "cli.py").is_file():
        raise SystemExit(f"no cpcompat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cpcompat.cli

    if Path(cpcompat.cli.__file__).resolve().parent != (SRC / "cpcompat").resolve():
        raise SystemExit(f"cpcompat was imported from {cpcompat.cli.__file__}, not {SRC}")
    return cpcompat.cli


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile that still has ten samples beyond it: the
    eleventh-largest sample, at percentile 100 * (n - 10) / n by nearest
    rank. With ten samples or fewer it is the largest, at 100."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


@dataclass
class Outcome:
    seconds: float
    code: int | None
    stderr: str
    error: str | None
    output: bytes | None


class Runner:
    """Runs one CLI operation in process and collects what it left behind."""

    def __init__(self, cli, work: Path) -> None:
        self.cli = cli
        self.out = {"compare": work / "report.json", "merge": work / "draft.txt"}

    def run(self, op) -> Outcome:
        out = self.out[op.command]
        out.unlink(missing_ok=True)
        flag = "--report" if op.command == "compare" else "--out"
        pair = op.pair
        argv = [op.command, str(pair.file_a), str(pair.file_b), "--mode", op.mode,
                "--rules", str(pair.rules_file), flag, str(out)]
        captured = io.StringIO()
        error = None
        gc.collect()
        with contextlib.redirect_stderr(captured), contextlib.redirect_stdout(captured):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:
                code = None
                error = traceback.format_exc()
            seconds = time.perf_counter() - start
        output = out.read_bytes() if out.exists() else None
        return Outcome(seconds, code, captured.getvalue(), error, output)


class Checker:
    """Checks every operation's exit code and output against the reference.

    An output is checked in full the first time its operation runs; later
    runs of the same operation must reproduce the checked bytes or pass the
    full check again.
    """

    def __init__(self, parse_policy) -> None:
        self.parse_policy = parse_policy
        self.verified: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, op, outcome: Outcome) -> None:
        self.attempted += 1
        problems = self._problems(op, outcome)
        if problems:
            self.failures.append(f"{op.key}: " + "; ".join(problems))

    def _problems(self, op, outcome: Outcome) -> list[str]:
        if outcome.error is not None:
            return [outcome.error]
        problems = []
        if "Traceback (most recent call last)" in outcome.stderr:
            problems.append("traceback on stderr")
        if outcome.code != op.expected_code:
            problems.append(f"exit code {outcome.code}, expected {op.expected_code}")
        rejected_merge = op.command == "merge" and not op.pair.accepted
        if rejected_merge != (outcome.output is None):
            problems.append("output file missing" if outcome.output is None else "rejected merge wrote a draft")
        if problems:
            return problems
        digest = hashlib.sha256(outcome.output or b"").hexdigest()
        if self.verified.get(op.key) == digest:
            return []
        if not rejected_merge:
            problems = self._full_check(op, outcome.output)
        if not problems:
            self.verified.setdefault(op.key, digest)
        return problems

    def _full_check(self, op, output: bytes) -> list[str]:
        pair = op.pair
        if op.command == "compare":
            names = (pair.file_a.stem, pair.file_b.stem)
            return reference.check_report(json.loads(output), pair.scores[op.mode], op.mode, names)
        policy, diagnostics = self.parse_policy(output.decode("utf-8"), name="draft")
        if policy is None:
            return [f"draft does not reparse: {[str(d) for d in diagnostics][:3]}"]
        return reference.check_draft(policy, reference.expected_draft(pair.a, pair.b, op.mode))

    def digest(self) -> str:
        lines = "".join(f"{key} {self.verified[key]}\n" for key in sorted(self.verified))
        return hashlib.sha256(lines.encode()).hexdigest()


def child(argv: list[str], work: Path) -> tuple[int, float, float, str]:
    """Run ``python -m cpcompat`` fresh: exit code, wall seconds, peak RSS
    in MiB, stderr text."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    errors = work / "child.stderr"
    with open(errors, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "cpcompat", *argv], stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr, env=env, cwd=work)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024, errors.read_text(errors="replace")


def measure_setup(work: Path, checker: Checker) -> tuple[list[float], list[float]]:
    """Cold starts of ``python -m cpcompat validate`` on a one-section
    policy: their wall seconds and the same scaled to the reference pace."""
    policy = work / "setup.txt"
    policy.write_text("1 SCOPE\na) MUST be brief\n", encoding="utf-8")
    times, ticks = [], []
    for launch in range(SETUP_LAUNCHES + 1):
        tick = pace.tick()
        code, seconds, _, stderr = child(["validate", str(policy)], work)
        checker.attempted += 1
        if code != 0 or "valid, 1 paragraphs, 0 warnings" not in stderr:
            checker.failures.append(f"validate child: exit {code}: {stderr[-300:]}")
        if launch:  # the first launch only warms the file cache
            times.append(seconds)
            ticks.append(tick)
    ticks.append(pace.tick())
    return times, [seconds * pace.factor(ticks, index) for index, seconds in enumerate(times)]


def measure_rss(op, work: Path, checker: Checker) -> float:
    """Peak RSS of a fresh ``python -m cpcompat compare`` on the pair."""
    pair = op.pair
    report = work / "child-report.json"
    code, seconds, rss, stderr = child(
        ["compare", str(pair.file_a), str(pair.file_b), "--mode", op.mode,
         "--rules", str(pair.rules_file), "--report", str(report)], work)
    output = report.read_bytes() if report.exists() else None
    checker.check(op, Outcome(seconds, code, stderr, None, output))
    return rss


@dataclass
class Sample:
    """One operation of the timed loop; its pace tick has the same index."""

    command: str
    traced: bool
    seconds: float  # wall time of the call
    layers: Counter | None  # layer -> self seconds, traced operations only


@dataclass
class Loop:
    """Samples of one timed loop."""

    samples: list[Sample]
    ticks: list[float]  # kernel seconds before each sample, and after the last
    counts: Counter
    bytes_read: int
    bytes_written: int

    def times(self, command: str, traced: bool = False, scaled: bool = True) -> list[float]:
        return [
            sample.seconds * (pace.factor(self.ticks, index) if scaled else 1.0)
            for index, sample in enumerate(self.samples)
            if sample.command == command and sample.traced == traced
        ]

    def layer_s(self, command: str) -> Counter:
        """Scaled self seconds per layer, summed over the traced operations."""
        total: Counter = Counter()
        for index, sample in enumerate(self.samples):
            if sample.traced and sample.command == command:
                factor = pace.factor(self.ticks, index)
                total.update({layer: seconds * factor for layer, seconds in sample.layers.items()})
        return total

    @property
    def traced_ops(self) -> int:
        return sum(sample.traced for sample in self.samples)


def run_loop(runner: Runner, checker: Checker, ops: list, seconds: float, tracer, deadline: float) -> Loop:
    import spans

    loop = Loop([], [], Counter(), 0, 0)
    index = 0
    stop = min(time.monotonic() + seconds, deadline)
    while time.monotonic() < stop:
        op = ops[index % len(ops)]
        # Trace one mode's compare and merge of each pair: acquire for even
        # pairs and merge for odd ones, swapped each round. Traced and
        # untraced operations alternate every two or four operations.
        traced = tracer is not None and (index // 2 + index // 4 + index // len(ops)) % 2 == 1
        loop.ticks.append(pace.tick())
        if traced:
            tracer.install()
        try:
            outcome = runner.run(op)
        finally:
            if traced:
                tracer.remove()
        checker.check(op, outcome)
        layers = None
        if traced:
            recorded = tracer.take()
            layers = Counter(spans.self_times(recorded))
            loop.counts.update(spans.counts(recorded))
            loop.bytes_read += op.pair.bytes_in
            loop.bytes_written += len(outcome.output or b"")
        loop.samples.append(Sample(op.command, traced, outcome.seconds, layers))
        index += 1
    loop.ticks.append(pace.tick())
    return loop


def end_to_end(loop: Loop, setup: list[float], rss: float) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, note on samples)."""
    out = {}
    for command in ("compare", "merge"):
        samples = loop.times(command)
        if samples:
            unscaled = statistics.median(loop.times(command, scaled=False))
            out[f"{command}_s"] = (statistics.median(samples), "s",
                                   f"median of {len(samples)}; unscaled {unscaled:.4g} s")
            value, percentile = tail(samples)
            out[f"{command}_tail_s"] = (value, "s", f"p{percentile:.1f} of {len(samples)}")
    scaled = loop.times("compare") + loop.times("merge")
    if scaled:
        out["ops_per_s"] = (len(scaled) / sum(scaled), "1/s", f"{len(scaled)} ops in {sum(scaled):.2f} scaled s")
    out["setup_s"] = (statistics.median(setup), "s", f"median of {len(setup)}")
    out["peak_rss_mb"] = (rss, "MiB", "1 child")
    return out


def per_layer(loop: Loop) -> dict[str, tuple[float, str, str]]:
    n = loop.traced_ops
    traced, untraced = loop.times("compare", traced=True), loop.times("compare")
    if not traced or not untraced:
        raise SystemExit("too short to compare traced and untraced operations; give more --seconds")
    note = f"mean per op, {n} traced ops"
    s, c = loop.layer_s("compare") + loop.layer_s("merge"), loop.counts

    def per_op(value):
        return value / n

    out = {
        "parser.parse_s": (per_op(s["parser.parse"]), "s"),
        "parser.parse_calls": (per_op(c["parser.parse.calls"]), "count"),
        "parser.lines": (per_op(c["parser.lines"]), "count"),
        "parser.lines_per_s": (c["parser.lines"] / s["parser.parse"], "1/s"),
        "parser.paragraphs": (per_op(c["parser.paragraphs"]), "count"),
        "parser.options": (per_op(c["parser.options"]), "count"),
        "parser.diagnostics": (per_op(c["parser.diagnostics"]), "count"),
        "parser.render_s": (per_op(s["parser.render"]), "s"),
        "parser.render_lines": (per_op(c["parser.render_lines"]), "count"),
        "scoring.score_s": (per_op(s["scoring.score"]), "s"),
        "scoring.score_calls": (per_op(c["scoring.score.calls"]), "count"),
        "scoring.match_s": (per_op(s["scoring.match"]), "s"),
        "scoring.match_calls": (per_op(c["scoring.match.calls"]), "count"),
        "scoring.options_in": (per_op(c["scoring.options_in"]), "count"),
        "scoring.option_matches": (per_op(c["scoring.option_matches"]), "count"),
        "scoring.match_ratio": (c["scoring.option_matches"] / max(1, c["scoring.match_capacity"]), "ratio"),
        "comparison.compare_self_s": (per_op(s["comparison.compare"]), "s"),
        "comparison.rows": (per_op(c["comparison.rows"]), "count"),
        "comparison.diagnostics": (per_op(c["comparison.diagnostics"]), "count"),
        "comparison.json_s": (per_op(s["comparison.json"]), "s"),
        "comparison.json_bytes": (per_op(c["comparison.json_bytes"]), "bytes"),
        "acceptance.parse_rules_s": (per_op(s["acceptance.parse_rules"]), "s"),
        "acceptance.rules": (per_op(c["acceptance.rules"]), "count"),
        "acceptance.evaluate_s": (per_op(s["acceptance.evaluate"]), "s"),
        "acceptance.failures": (per_op(c["acceptance.failures"]), "count"),
        "model.find_s": (per_op(s["model.find"]), "s"),
        "model.find_calls": (per_op(c["model.find.calls"]), "count"),
        "merger.merge_self_s": (per_op(s["merger.merge"]), "s"),
        "merger.merge_calls": (per_op(c["merger.merge.calls"]), "count"),
        "merger.paragraphs": (per_op(c["merger.paragraphs"]), "count"),
        "merger.annotations": (per_op(c["merger.annotations"]), "count"),
        "cli.main_self_s": (per_op(s["cli.main"]), "s"),
        "cli.bytes_read": (per_op(loop.bytes_read), "bytes"),
        "cli.bytes_written": (per_op(loop.bytes_written), "bytes"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(untraced), "ratio"),
    }
    return {name: (value, unit, note) for name, (value, unit) in out.items()}


def layer_shares(loop: Loop) -> list[str]:
    """Each layer's share of the traced compare and merge time, largest
    first by compare share."""
    lines = [f"  {'layer':<24} {'compare':>8} {'merge':>8}"]
    compare, merge = loop.layer_s("compare"), loop.layer_s("merge")
    totals = {"compare": sum(compare.values()) or 1.0, "merge": sum(merge.values()) or 1.0}
    for layer in sorted(compare.keys() | merge.keys(), key=lambda name: -compare[name]):
        lines.append(f"  {layer:<24} {compare[layer] / totals['compare']:8.1%} {merge[layer] / totals['merge']:8.1%}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    cli = load_program()
    import spans  # imports the program
    from cpcompat.parser import parse_policy

    if args.workload not in workloads.SPECS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.SPECS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    reference.self_test()
    work = BUILD / "cpcompat-bench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        phases = {"start": time.monotonic() - started}
        pairs = workloads.build(args.workload, args.seed, work)
        ops = workloads.cycle(pairs)
        checker = Checker(parse_policy)
        runner = Runner(cli, work)
        phases["corpus"] = time.monotonic() - started

        pace.warm_up()
        setup_unscaled, setup = measure_setup(work, checker)
        largest = max(pairs, key=lambda pair: pair.bytes_in)
        rss = measure_rss(next(op for op in ops if op.pair is largest), work, checker)
        checker.check(ops[0], runner.run(ops[0]))  # warm-up, untimed
        phases["children and warm-up"] = time.monotonic() - started

        tracer = spans.Tracer() if args.trace else None
        gc.collect()
        gc.freeze()  # the corpus and reference data are never garbage
        loop = run_loop(runner, checker, ops, args.seconds, tracer, started + LOOP_DEADLINE_S)
        for op in ops:  # untimed: complete the digest over every operation
            if op.key not in checker.verified and not any(f.startswith(op.key + ":") for f in checker.failures):
                checker.check(op, runner.run(op))
        gc.unfreeze()
        phases["loop and checks"] = time.monotonic() - started

        if tracer is not None:
            missing = tracer.never_fired(workloads.SPECS[args.workload].quiet)
            if missing:
                raise SystemExit(f"traced boundaries never reached: {', '.join(missing)}")
        metrics = end_to_end(loop, setup, rss)
        kernel_s = statistics.median(loop.ticks)
        if tracer is not None:
            metrics.update(per_layer(loop))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for directory in (work.parent, BUILD):
            with contextlib.suppress(OSError):
                directory.rmdir()

    failed = len(checker.failures)
    print(f"workload {args.workload}, seed {args.seed}: {len(pairs)} pairs, "
          f"{sum(p.accepted for p in pairs)} accepted by their rules, {len(ops)} operations per round")
    print("elapsed at end of " + ", ".join(f"{name} {at:.1f} s" for name, at in phases.items()))
    print(f"pace: kernel median {kernel_s * 1e3:.2f} ms over {len(loop.ticks)} ticks, reference "
          f"{pace.REFERENCE_S * 1e3:.2f} ms; unscaled setup_s {statistics.median(setup_unscaled):.4g} s")
    print(f"{'metric':<28} {'value':>14}  {'unit':<6} samples")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<28} {value:>14.6g}  {unit:<6} {note}")
    print(f"{'failed_ratio':<28} {failed / checker.attempted:>14.6g}  {'ratio':<6} {failed} of {checker.attempted} operations")
    if tracer is not None:
        print("share of traced operation time by layer (self time):")
        print("\n".join(layer_shares(loop)))
    print(f"digest sha256 {checker.digest()} over {len(checker.verified)} operations' outputs")
    for failure in checker.failures[:5]:
        print(f"FAILED {failure[:2000]}", file=sys.stderr)

    mismatched = [m["name"] for m in wanted if metrics.get(m["name"], (0, None))[1] != m["unit"]]
    if mismatched:
        raise SystemExit(f"declared metrics without a value in that unit: {', '.join(mismatched)}")
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
