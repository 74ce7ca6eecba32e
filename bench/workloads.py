"""The benchmark's workloads: generated pairs, their rules, and the cycle of
CLI operations one closed-loop client runs over them.

Each pair gets its own rules file, written from the reference scores so
that a fixed number of pairs per workload is accepted in both modes and
the rest rejected in both. The share is fixed, not left to the seed, so
every seed mixes accepted merges (which draft and render) and rejected
ones (which stop after the verdict) in the same proportion.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import corpus
import reference
from corpus import Section
from reference import Rule, Scores

MODES = ("merge", "acquire")


@dataclass(frozen=True)
class Spec:
    pairs: int
    accepted: int  # pairs per corpus the rules accept, in both modes
    rules: str  # "sample", "overall" or "every-tenth"
    # Traced boundaries (spans.boundary_name) the workload never reaches;
    # a traced run fails if any other boundary does not fire.
    quiet: frozenset[str] = frozenset()


SPECS = {
    "rfc3647": Spec(pairs=8, accepted=5, rules="sample"),
    # Every wide pair is rejected: an accepted wide merge would have to
    # render more than 26 options in one section, which the renderer refuses
    # (measured in cliffs.py). No section is one-sided, no rule names a
    # section, and nothing is drafted, so these boundaries never fire here.
    "wide": Spec(
        pairs=4,
        accepted=0,
        rules="overall",
        quiet=frozenset(
            {
                "cpcompat.cli.render_policy",
                "cpcompat.comparison.score_option_lists",
                "cpcompat.merger.match_options",
                "ComparisonReport.find",
            }
        ),
    ),
    "deep": Spec(pairs=4, accepted=3, rules="every-tenth"),
}


@dataclass
class Pair:
    name: str
    a: list[Section]
    b: list[Section]
    file_a: Path
    file_b: Path
    rules_file: Path
    scores: dict[str, Scores]
    accepted: bool
    bytes_in: int


@dataclass(frozen=True)
class Op:
    pair: Pair
    command: str  # "compare" or "merge"
    mode: str

    @property
    def key(self) -> str:
        return f"{self.pair.name}/{self.command}/{self.mode}"

    @property
    def expected_code(self) -> int:
        return 0 if self.pair.accepted else 3


def _below(score: float) -> tuple[str, float]:
    threshold = max(0.0, math.floor((score - 1.0) * 100) / 100)
    return (">" if threshold > 0 else ">="), threshold


def _above(score: float) -> float:
    threshold = math.ceil((score + 1.0) * 100) / 100
    if threshold > 100.0:
        raise AssertionError(f"no overall threshold rejects a score of {score}")
    return threshold


def _rules(spec: Spec, rng: random.Random, pair_a: list[Section], scores: dict[str, Scores], accept: bool) -> list[Rule]:
    lowest = {path: min(s.combined[path] for s in scores.values()) for path in scores["merge"].combined}
    low_w = min(s.overall_weighted for s in scores.values())
    high_w = max(s.overall_weighted for s in scores.values())
    low_u = min(s.overall_unweighted for s in scores.values())
    rules = [Rule(*_below(low_u), weighted=False)]

    if spec.rules == "sample":
        shared = [r[0] for r in scores["merge"].rows if r[3] in ("matched", "both_empty")]
        exact = False
        for path in rng.sample(shared, 8):
            if lowest[path] >= 100.0 and not exact:
                exact = True
                rules.append(Rule("==", 100.0, path))
            else:
                rules.append(Rule(*_below(lowest[path]), path))
    elif spec.rules == "every-tenth":
        paths = [reference.dotted(s.path) for s in corpus.walk(pair_a)]
        rules += [Rule(*_below(lowest[path]), path) for path in paths[::10]]

    if accept:
        rules.insert(0, Rule(*_below(low_w)))
        return rules
    # A rejected pair fails exactly one rule. Where the workload has section
    # rules and a section scores exactly 100 in both modes, that rule sits on
    # the boundary, "> 100", which only the strictness of ">" rejects.
    perfect = [path for path, score in lowest.items() if score == 100.0]
    if perfect and spec.rules != "overall":
        return [Rule(">", 100.0, rng.choice(perfect))] + rules
    return [Rule(">=", _above(high_w))] + rules


def build(workload: str, seed: int, directory: Path) -> list[Pair]:
    """Generate the workload's corpus and write every input file."""
    spec = SPECS[workload]
    rng = random.Random(f"cpcompat-bench-rules:{workload}:{seed}")
    accepted = set(rng.sample(range(spec.pairs), spec.accepted))
    pairs = []
    for index, (a, b) in enumerate(corpus.generate(workload, seed, spec.pairs)):
        name = f"p{index}"
        scores = {mode: reference.score(a, b, mode) for mode in MODES}
        rules = _rules(spec, rng, a, scores, index in accepted)
        verdicts = {reference.accepted(rules, scores[mode]) for mode in MODES}
        if verdicts != {index in accepted}:
            raise AssertionError(f"{workload} {name}: rules do not give the planned verdict")
        files = (directory / f"{name}a.txt", directory / f"{name}b.txt", directory / f"{name}.rules")
        files[0].write_text(corpus.render(a), encoding="utf-8")
        files[1].write_text(corpus.render(b), encoding="utf-8")
        files[2].write_text("".join(rule.line() + "\n" for rule in rules), encoding="utf-8")
        pairs.append(
            Pair(name, a, b, *files, scores, index in accepted, sum(f.stat().st_size for f in files))
        )
    return pairs


def cycle(pairs: list[Pair]) -> list[Op]:
    """One round of the closed loop: per pair, compare and merge in each mode."""
    return [Op(pair, command, mode) for pair in pairs for mode in MODES for command in ("compare", "merge")]
