"""Independent reference for checking the CLI's outputs.

Everything here works on the generator's own trees (``corpus.Section``),
never on objects the program built, and imports nothing from
``cpcompat.scoring``, ``cpcompat.comparison`` or ``cpcompat.merger``. The
rules come from README.md, CLI.md and RULES.md:

* a phrase-equal option pair is worth ``100 * (1 - |va - vb|)`` with
  MUST 1.0, RECOMMENDED 0.8, OPTIONAL 0.5, NOT 0.0 and no keyword 1.0;
  pairing is one-to-one, each A option taking the first unused B option
  with the same normalized phrase;
* ``OR`` takes the best pair, ``AND`` (the default) sums over the larger
  option count under merge and over A's count under acquire; one silent
  side scores 0 under merge and 100 under acquire, two silent sides 100;
* a section blends its own score with the weighted mean of A's children,
  ``(own + children * N) / (1 + N)``; B-only sections stand alone;
* the overall scores average the top-level rows, weighted by A's weights.

Merged drafts are checked for the union of paths and options, the
stricter keyword on matched options and a flag on every seam.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property

from corpus import Section, walk

TOLERANCE = 1e-9
VALUE = {"MUST": 1.0, "RECOMMENDED": 0.8, "OPTIONAL": 0.5, "NOT": 0.0, None: 1.0}


def norm(text: str) -> str:
    return " ".join(text.split()).lower()


def pairing(options_a, options_b) -> list[tuple[int, int]]:
    """(index_a, index_b) pairs, each A option taking the first free B match."""
    queues: dict[str, deque[int]] = {}
    for index_b, (_, phrase) in enumerate(options_b):
        queues.setdefault(norm(phrase), deque()).append(index_b)
    pairs = []
    for index_a, (_, phrase) in enumerate(options_a):
        queue = queues.get(norm(phrase))
        if queue:
            pairs.append((index_a, queue.popleft()))
    return pairs


def own_score(options_a, options_b, connective: str | None, mode: str) -> float:
    if not options_a and not options_b:
        return 100.0
    if not options_a or not options_b:
        return 100.0 if mode == "acquire" else 0.0
    terms = [
        100.0 * (1.0 - abs(VALUE[options_a[i][0]] - VALUE[options_b[j][0]]))
        for i, j in pairing(options_a, options_b)
    ]
    if connective == "OR":
        return max(terms, default=0.0)
    denominator = len(options_a) if mode == "acquire" else max(len(options_a), len(options_b))
    return sum(terms) / denominator


@dataclass
class Scores:
    """Expected report content: rows in report order, totals, diagnostics."""

    rows: list[tuple[str, float, int, str]]  # dotted path, combined, weight, status
    overall_weighted: float
    overall_unweighted: float
    diagnostics: Counter  # (code, dotted path) -> count

    @cached_property
    def combined(self) -> dict[str, float]:
        return {path: score for path, score, _, _ in self.rows}


def dotted(path: tuple[int, ...]) -> str:
    return ".".join(map(str, path))


def score(roots_a: list[Section], roots_b: list[Section], mode: str) -> Scores:
    by_path_b = {s.path: s for s in walk(roots_b)}
    rows: list = []
    diagnostics: Counter = Counter()

    def side_a(section: Section) -> float:
        other = by_path_b.get(section.path)
        if other is None:
            diagnostics["MISSING_IN_B", dotted(section.path)] += 1
            own = own_score(section.options, [], section.connective, mode)
            status = "missing_in_b"
        else:
            if norm(section.title) != norm(other.title):
                diagnostics["TITLE_MISMATCH", dotted(section.path)] += 1
            if section.connective and other.connective and section.connective != other.connective:
                diagnostics["CONNECTIVE_MISMATCH", dotted(section.path)] += 1
            own = own_score(section.options, other.options, section.connective or other.connective, mode)
            status = "matched" if section.options or other.options else "both_empty"
        index = len(rows)
        rows.append(None)
        combined = own
        if section.children:
            scored = [(side_a(child), child.weight) for child in section.children]
            aggregate = sum(s * w for s, w in scored) / sum(w for _, w in scored)
            combined = (own + aggregate * len(scored)) / (1 + len(scored))
        rows[index] = (dotted(section.path), combined, section.weight, status)
        return combined

    for root in roots_a:
        side_a(root)
    paths_a = {s.path for s in walk(roots_a)}
    for section in walk(roots_b):
        if section.path not in paths_a:
            diagnostics["MISSING_IN_A", dotted(section.path)] += 1
            rows.append((dotted(section.path), own_score([], section.options, None, mode), 1, "missing_in_a"))

    top = [row for row in rows if "." not in row[0]]
    if top:
        weighted = sum(r[1] * r[2] for r in top) / sum(r[2] for r in top)
        unweighted = sum(r[1] for r in top) / len(top)
    else:
        weighted = unweighted = 100.0
    return Scores(rows, weighted, unweighted, diagnostics)


# -- rules -------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One acceptance rule; ``path`` is None for an overall rule."""

    operator: str  # ">", ">=" or "=="
    threshold: float
    path: str | None = None
    weighted: bool = True

    def line(self) -> str:
        if self.path is None:
            basis = "" if self.weighted else " unweighted"
            return f"overall {self.operator} {self.threshold:.2f}{basis}"
        return f"paragraph {self.path} {self.operator} {self.threshold:.2f}"

    def passes(self, scores: Scores) -> bool:
        if self.path is None:
            actual = scores.overall_weighted if self.weighted else scores.overall_unweighted
        else:
            actual = scores.combined[self.path]
        if self.operator == "==":
            return abs(actual - 100.0) <= TOLERANCE
        if self.operator == ">=":
            return actual - self.threshold >= -TOLERANCE
        return actual - self.threshold > TOLERANCE


def accepted(rules: list[Rule], scores: Scores) -> bool:
    return all(rule.passes(scores) for rule in rules)


# -- report check ------------------------------------------------------------


def check_report(data: dict, expected: Scores, mode: str, names: tuple[str, str]) -> list[str]:
    """Differences between a parsed JSON report and the expected scores."""
    problems = []
    header = (data.get("report_version"), data.get("mode"), data.get("policy_a_name"), data.get("policy_b_name"))
    if header != (1, mode, *names):
        problems.append(f"report header {header}")
    for key in ("overall_weighted", "overall_unweighted"):
        if abs(data[key] - getattr(expected, key)) > TOLERANCE:
            problems.append(f"{key} {data[key]!r} != {getattr(expected, key)!r}")
    rows = data["paragraphs"]
    if [r["path"] for r in rows] != [r[0] for r in expected.rows]:
        problems.append("paragraph rows differ in paths or order")
    else:
        for row, (path, combined, weight, status) in zip(rows, expected.rows):
            if abs(row["combined_score"] - combined) > TOLERANCE or (row["weight"], row["match_status"]) != (weight, status):
                problems.append(f"row {path}: {row} != {(combined, weight, status)}")
                break
    got = Counter((d["code"], d["path"]) for d in data["diagnostics"])
    if got != expected.diagnostics:
        problems.append(f"diagnostics differ: {sorted((got - expected.diagnostics).items())[:3]} / {sorted((expected.diagnostics - got).items())[:3]}")
    return problems


# -- merge check -------------------------------------------------------------


@dataclass
class Expected:
    """A section of the expected merged draft."""

    path: tuple[int, ...]
    title: str
    weight: int
    connective: str | None
    options: list[tuple[str | None, str]]
    comments: Counter
    children: list["Expected"]


def _as_is(section: Section, flag: str | None = None) -> Expected:
    comments = Counter(section.comments)
    if flag:
        comments[flag] += 1
    return Expected(
        section.path,
        section.title,
        section.weight,
        section.connective,
        list(section.options),
        comments,
        [_as_is(child) for child in section.children],
    )


def _merged_children(children_a: list[Section], children_b: list[Section]) -> list[Expected]:
    by_segment_b = {c.path[-1]: c for c in children_b}
    segments_a = {c.path[-1] for c in children_a}
    out = []
    for child in children_a:
        other = by_segment_b.get(child.path[-1])
        out.append(_as_is(child, "// unmatched: from A") if other is None else _merged(child, other))
    out += [_as_is(c, "// unmatched: from B") for c in children_b if c.path[-1] not in segments_a]
    return sorted(out, key=lambda e: e.path[-1])


def _merged(a: Section, b: Section) -> Expected:
    matched = dict(pairing(a.options, b.options))
    options = []
    comments = Counter(a.comments)
    comments.update(c for c in b.comments if c not in a.comments)
    for index_a, option in enumerate(a.options):
        if index_a not in matched:
            options.append(option)
            comments[f"// unmatched: from A: {option[1]}"] += 1
            continue
        other = b.options[matched[index_a]]
        options.append(other if VALUE[other[0]] > VALUE[option[0]] else option)
    used_b = set(matched.values())
    for index_b, option in enumerate(b.options):
        if index_b not in used_b:
            options.append(option)
            comments[f"// unmatched: from B: {option[1]}"] += 1
    if norm(a.title) != norm(b.title):
        comments[f'// merged: title in B was "{b.title}"'] += 1
    if a.connective and b.connective and a.connective != b.connective:
        comments[f"// merged: connective in B was {b.connective}"] += 1
    return Expected(
        a.path,
        a.title,
        a.weight,
        a.connective or b.connective,
        options,
        comments,
        _merged_children(a.children, b.children),
    )


def expected_draft(roots_a: list[Section], roots_b: list[Section], mode: str) -> list[Expected]:
    if mode == "acquire":
        return [_as_is(root) for root in roots_a]
    return _merged_children(roots_a, roots_b)


def check_draft(policy, expected: list[Expected]) -> list[str]:
    """Differences between a reparsed draft (a ``cpcompat.Policy``) and the
    expected one: paths, titles, weights, connectives, options with their
    keywords, and the multiset of comments including every seam flag."""
    problems: list[str] = []
    stack = [(list(policy.roots), expected)]
    while stack and not problems:
        got, want = stack.pop()
        if [p.path.segments for p in got] != [e.path for e in want]:
            problems.append(f"sections differ under {want[0].path[:-1] if want else '?'}")
            break
        for paragraph, section in zip(got, want):
            connective = None if paragraph.connective.value == "NONE" else paragraph.connective.value
            options = [(o.keyword.name if o.keyword else None, o.phrase) for o in paragraph.options]
            actual = (paragraph.title, paragraph.weight, connective, options, Counter(paragraph.comments))
            wanted = (section.title, section.weight, section.connective, section.options, section.comments)
            if actual != wanted:
                field = next(n for n, x, y in zip(("title", "weight", "connective", "options", "comments"), actual, wanted) if x != y)
                problems.append(f"section {dotted(section.path)}: {field} differs")
                break
            stack.append((list(paragraph.children), section.children))
    return problems


# -- self-test -----------------------------------------------------------------


def self_test() -> None:
    """Reproduce the README quick-start scores (32.50 merge, 43.33 acquire)."""
    ours = [Section((1,), "CERTIFICATE PROFILE", connective="AND",
                    options=[("MUST", "a"), ("MUST", "b"), ("MUST", "c")])]
    theirs = [Section((1,), "CERTIFICATE PROFILE", connective="AND",
                      options=[("RECOMMENDED", "a"), ("OPTIONAL", "b"), ("RECOMMENDED", "d"), ("RECOMMENDED", "e")])]
    merge = score(ours, theirs, "merge").overall_weighted
    acquire = score(ours, theirs, "acquire").overall_weighted
    if abs(merge - 32.5) > TOLERANCE or abs(acquire - 130.0 / 3.0) > TOLERANCE:
        raise AssertionError(f"reference self-test failed: merge {merge}, acquire {acquire}")
