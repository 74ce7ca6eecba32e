"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.install`` replaces each boundary function named in BOUNDARIES
with a wrapper that records a span (boundary, layer, parent span, start,
end) and the work counts of the call; ``Tracer.remove`` puts the originals
back, so untraced operations run the unmodified program.

The counts are read from the call's arguments and result as soon as it
returns, so the tracer keeps no reference to them and every object is
freed where the untraced program frees it. Counting takes time of its own
(mostly walking parsed and merged trees); that time is part of the
tracing overhead and of no layer.

A layer's time is the self time of its spans: a span's duration minus the
time its wrapped children took, counting included. The layers therefore
add up to the whole ``cli.main`` call less the counting.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import cpcompat.cli
import cpcompat.comparison
import cpcompat.merger
import cpcompat.scoring
from cpcompat.model import ComparisonReport

# (owner, attribute, layer). The cli names are the ones cli.py imports; the
# others are the calls that cross from one module into another below it.
BOUNDARIES = (
    (cpcompat.cli, "main", "cli.main"),
    (cpcompat.cli, "parse_policy", "parser.parse"),
    (cpcompat.cli, "render_policy", "parser.render"),
    (cpcompat.cli, "compare", "comparison.compare"),
    (cpcompat.cli, "report_to_json", "comparison.json"),
    (cpcompat.cli, "parse_rules", "acceptance.parse_rules"),
    (cpcompat.cli, "evaluate", "acceptance.evaluate"),
    (cpcompat.cli, "merge", "merger.merge"),
    (cpcompat.comparison, "score_paragraph_options", "scoring.score"),
    (cpcompat.comparison, "score_option_lists", "scoring.score"),
    (cpcompat.scoring, "match_options", "scoring.match"),
    (cpcompat.merger, "match_options", "scoring.match"),
    (ComparisonReport, "find", "model.find"),
)


def boundary_name(owner, attribute: str) -> str:
    return f"{getattr(owner, '__name__', owner)}.{attribute}"


class Tracer:
    def __init__(self) -> None:
        # name, layer, parent index, start, end, end of counting, counts
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.saved: list[tuple] = []
        self.fired: Counter = Counter()

    def _wrap(self, name: str, layer: str, function):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                work = _count(layer, args, result)
                spans[index] = (name, layer, parent, start, end, clock(), work)
            return result

        wrapper.__wrapped__ = function
        return wrapper

    def install(self) -> None:
        for owner, attribute, layer in BOUNDARIES:
            original = vars(owner).get(attribute)
            if not callable(original):
                self.remove()
                raise SystemExit(f"traced boundary {boundary_name(owner, attribute)} no longer exists")
            self.saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(boundary_name(owner, attribute), layer, original))

    def remove(self) -> None:
        while self.saved:
            owner, attribute, original = self.saved.pop()
            setattr(owner, attribute, original)

    def take(self) -> list[tuple]:
        """The spans of the operation just finished; clears the buffer."""
        spans = list(self.spans)
        self.spans.clear()
        self.fired.update(span[0] for span in spans)
        return spans

    def never_fired(self, quiet: frozenset[str]) -> list[str]:
        """Boundaries that fired in no traced operation, apart from ``quiet``."""
        names = {boundary_name(owner, attribute) for owner, attribute, _ in BOUNDARIES}
        return sorted(name for name in names - quiet if not self.fired[name])


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Seconds of self time per layer for one operation's spans."""
    child_time = [0.0] * len(spans)
    for _, _, parent, start, _, done, _ in spans:
        if parent >= 0:
            child_time[parent] += done - start
    totals: dict[str, float] = defaultdict(float)
    for index, (_, layer, _, start, end, _, _) in enumerate(spans):
        totals[layer] += end - start - child_time[index]
    return totals


def counts(spans: list[tuple]) -> Counter:
    """Work counts of one operation."""
    out: Counter = Counter()
    for _, layer, _, _, _, _, work in spans:
        out[layer + ".calls"] += 1
        out.update(work)
    return out


def _paragraphs(policy) -> list:
    return list(policy.walk()) if policy is not None else []


def _count(layer: str, args: tuple, result) -> dict[str, int]:
    """Work counts of one call, read from its arguments and result."""
    if result is None:  # the call raised, or merge refused a rejected pair
        return {}
    if layer == "parser.parse":
        policy, diagnostics = result
        paragraphs = _paragraphs(policy)
        return {
            "parser.lines": args[0].count("\n"),
            "parser.paragraphs": len(paragraphs),
            "parser.options": sum(len(p.options) for p in paragraphs),
            "parser.diagnostics": len(diagnostics),
        }
    if layer == "parser.render":
        return {"parser.render_lines": result.count("\n")}
    if layer == "comparison.compare":
        return {"comparison.rows": len(result.paragraph_scores), "comparison.diagnostics": len(result.diagnostics)}
    if layer == "comparison.json":
        return {"comparison.json_bytes": len(result.encode("utf-8"))}
    if layer == "acceptance.parse_rules":
        return {"acceptance.rules": len(result)}
    if layer == "acceptance.evaluate":
        return {"acceptance.failures": len(result.failures)}
    if layer == "merger.merge":
        paragraphs = _paragraphs(result)
        return {
            "merger.paragraphs": len(paragraphs),
            "merger.annotations": sum(
                c.startswith(("// merged:", "// unmatched:")) for p in paragraphs for c in p.comments
            ),
        }
    if layer == "scoring.match":
        return {
            "scoring.options_in": len(args[0]) + len(args[1]),
            "scoring.option_matches": len(result),
            "scoring.match_capacity": min(len(args[0]), len(args[1])),
        }
    return {}
