"""Seeded generator for the benchmark's three policy corpus shapes.

Every document is built in memory first, as a tree of ``Section`` objects
that the reference checker scores on its own, and then written out in the
policy text format of FORMAT.md. The same ``(workload, seed)`` always gives
the same bytes: the generator draws from one ``random.Random`` seeded with a
string and never iterates over a set.

The shapes:

* ``rfc3647`` - the nine main sections of RFC 3647, depth <= 4, about 250
  paragraphs and 2k lines per side, 2 to 12 options per paragraph. The two
  sides share most phrases, drift in keywords, phrase spelling, titles and
  connectives, and each misses a few sections the other has.
* ``wide`` - three sections per side with about 2,000 options each; half the
  phrases are shared, a few repeat, AND and OR are mixed.
* ``deep`` - outlines nested to depth 8 with about 4k paragraphs per side,
  about 30% of sections one-sided, 1 to 4 options per paragraph.

Phrases come from a vocabulary that avoids every reserved spelling of the
format (requirement keywords, the word ``connection``, numbers, ``x)``
labels), so each option line parses back to exactly the generated option.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

KEYWORDS = ("MUST", "RECOMMENDED", "OPTIONAL", "NOT")

RFC3647_TITLES = (
    "INTRODUCTION",
    "PUBLICATION AND REPOSITORY RESPONSIBILITIES",
    "IDENTIFICATION AND AUTHENTICATION",
    "CERTIFICATE LIFE-CYCLE OPERATIONAL REQUIREMENTS",
    "FACILITY, MANAGEMENT, AND OPERATIONAL CONTROLS",
    "TECHNICAL SECURITY CONTROLS",
    "CERTIFICATE, CRL, AND OCSP PROFILES",
    "COMPLIANCE AUDIT AND OTHER ASSESSMENTS",
    "OTHER BUSINESS AND LEGAL MATTERS",
)

WORDS = tuple(
    """
    access accountability activation agreement algorithm alert annual applicant
    approval archive assessor assurance attestation audit authority authorization
    availability backup badge biometric boundary cabinet camera ceremony
    certificate chain clock compromise confidentiality configuration contract
    control countersignature credential crl curve custodian daily database
    deletion destruction device directory disaster disclosure dispute domain
    dual ecdsa email encryption enrollment entropy escrow evidence expiry
    extension facility fees firewall firmware frequency generation guard hash
    hardware identity incident indemnity insurance integrity interval inventory
    issuance issuer journal key lifetime liability locality logging mailbox
    maintenance mapping media monitoring network nonce notary notification ocsp
    offline online operator organization partition password patch personnel
    physical pin possession privacy private procedure profile protocol proxy
    publication qualifier quorum random receipt reconciliation record recovery
    redundancy refund registration rekey reliance remediation renewal repository
    request residency retention review revocation rotation router rsa safe
    screening seal secret segmentation serial server session signature site
    smartcard software split stamp status storage subscriber suspension
    synchronization technician termination token training transport trustee
    tunnel usage validation vault vendor verification warranty weekly witness
    workstation zone
    """.split()
)


@dataclass
class Section:
    """One paragraph of a generated policy.

    ``options`` holds ``(keyword, phrase)`` pairs, the keyword a member of
    KEYWORDS or None; ``labeled`` says whether the written options carry
    ``a)``-style labels.
    """

    path: tuple[int, ...]
    title: str
    weight: int = 1
    connective: str | None = None
    options: list[tuple[str | None, str]] = field(default_factory=list)
    comments: list[str] = field(default_factory=list)
    children: list["Section"] = field(default_factory=list)
    labeled: bool = True

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def walk(roots: list[Section]):
    for root in roots:
        yield from root.walk()


def render(roots: list[Section]) -> str:
    """Write a generated tree in the policy text format."""
    lines: list[str] = []
    for section in walk(roots):
        heading = f"{'.'.join(map(str, section.path))} {section.title}"
        lines.append(heading if section.weight == 1 else f"{heading} {section.weight}")
        lines.extend(section.comments)
        for index, (keyword, phrase) in enumerate(section.options):
            text = phrase if keyword is None else f"{keyword} {phrase}"
            lines.append(f"{chr(97 + index)}) {text}" if section.labeled else text)
        if section.connective is not None:
            lines.append(f"Connection {section.connective}")
    return "".join(line + "\n" for line in lines)


class _Draw:
    """Random choices shared by all three shapes."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def phrase(self, low: int = 3, high: int = 6) -> str:
        return " ".join(self.rng.choices(WORDS, k=self.rng.randint(low, high)))

    def phrases(self, count: int, low: int = 3, high: int = 6) -> list[str]:
        seen: dict[str, None] = {}
        while len(seen) < count:
            seen.setdefault(self.phrase(low, high))
        return list(seen)

    def keyword(self) -> str | None:
        return self.rng.choice(KEYWORDS + (None,))

    def title(self) -> str:
        return " ".join(w.capitalize() for w in self.rng.choices(WORDS, k=self.rng.randint(2, 4)))

    def connective(self) -> str | None:
        return self.rng.choices(("AND", "OR", None), weights=(6, 2, 2))[0]

    def respell(self, phrase: str) -> str:
        """Same phrase after normalization, spelled differently."""
        words = phrase.split()
        index = self.rng.randrange(len(words))
        words[index] = words[index].upper() if self.rng.random() < 0.5 else words[index].capitalize()
        if len(words) > 1 and self.rng.random() < 0.5:
            return "  ".join(words)
        return " ".join(words)

    def retitle(self, title: str) -> str:
        words = title.split()
        words[self.rng.randrange(len(words))] = self.rng.choice(WORDS).capitalize()
        return " ".join(words)


def _grow(draw: _Draw, roots: list[Section], total: int, max_depth: int, chain: float) -> None:
    """Add subsections until the tree holds ``total`` sections.

    With probability ``chain`` the next section nests under the one added
    last, which builds deep runs; otherwise it goes under a random section.
    """
    nodes = list(roots)
    last = roots[-1]
    while len(nodes) < total:
        if draw.rng.random() < chain and len(last.path) < max_depth:
            parent = last
        else:
            parent = draw.rng.choice(nodes)
            if len(parent.path) >= max_depth:
                continue
        child = Section(path=parent.path + (len(parent.children) + 1,), title=draw.title())
        parent.children.append(child)
        nodes.append(child)
        last = child


def _copy(section: Section) -> Section:
    return Section(
        path=section.path,
        title=section.title,
        weight=section.weight,
        connective=section.connective,
        options=list(section.options),
        comments=list(section.comments),
        children=[_copy(child) for child in section.children],
        labeled=section.labeled,
    )


def _drift_options(
    draw: _Draw, options: list[tuple[str | None, str]], keep: float, rekey: float, respell: float
) -> list[tuple[str | None, str]]:
    out = []
    for keyword, phrase in options:
        if draw.rng.random() >= keep:
            continue
        if draw.rng.random() < rekey:
            keyword = draw.keyword()
        if draw.rng.random() < respell:
            phrase = draw.respell(phrase)
        out.append((keyword, phrase))
    return out


def _drift_side(draw: _Draw, roots: list[Section], drops: int, extras: int, max_options: int) -> None:
    """Turn a copy of the shared base into one party's policy."""
    for section in walk(roots):
        section.options = _drift_options(draw, section.options, keep=0.92, rekey=0.3, respell=0.1)
        if draw.rng.random() < 0.15 and len(section.options) < max_options:
            section.options.insert(draw.rng.randint(0, len(section.options)), (draw.keyword(), draw.phrase()))
        if len(section.path) > 1 and draw.rng.random() < 0.04:
            section.title = draw.retitle(section.title)
        elif len(section.path) > 1 and draw.rng.random() < 0.05:
            section.title = draw.respell(section.title)
        if draw.rng.random() < 0.05:
            section.connective = draw.connective()
        if draw.rng.random() < 0.04:
            section.comments.append(f"// note: {draw.phrase()}")
    for _ in range(drops):
        parents = [s for s in walk(roots) if any(len(list(c.walk())) <= 3 for c in s.children)]
        parent = draw.rng.choice(parents)
        small = [c for c in parent.children if len(list(c.walk())) <= 3]
        parent.children.remove(draw.rng.choice(small))
    for _ in range(extras):
        parents = [s for s in walk(roots) if len(s.path) < 4]
        parent = draw.rng.choice(parents)
        segment = (parent.children[-1].path[-1] if parent.children else 0) + 1 + draw.rng.randint(0, 2)
        extra = Section(path=parent.path + (segment,), title=draw.title(), connective=draw.connective())
        extra.options = [(draw.keyword(), p) for p in draw.phrases(draw.rng.randint(2, max_options))]
        parent.children.append(extra)


def rfc3647_pair(rng: random.Random) -> tuple[list[Section], list[Section]]:
    draw = _Draw(rng)
    base = [
        Section(path=(index,), title=title, weight=rng.randint(1, 3))
        for index, title in enumerate(RFC3647_TITLES, start=1)
    ]
    _grow(draw, base, total=250, max_depth=4, chain=0.3)
    for section in walk(base):
        section.options = [(draw.keyword(), p) for p in draw.phrases(rng.randint(2, 12))]
        section.connective = draw.connective()
        section.labeled = rng.random() < 0.7
    sides = []
    for _ in range(2):
        roots = [_copy(root) for root in base]
        _drift_side(draw, roots, drops=rng.randint(2, 4), extras=rng.randint(1, 3), max_options=12)
        sides.append(roots)
    return sides[0], sides[1]


WIDE_TITLES = ("ACCEPTED ALGORITHMS", "PERMITTED EXTENSIONS", "OPERATIONAL CONTROLS")


def wide_pair(rng: random.Random) -> tuple[list[Section], list[Section]]:
    draw = _Draw(rng)
    sides: tuple[list[Section], list[Section]] = ([], [])
    # Section 1 is AND on both sides, section 2 OR on both, section 3 AND in
    # the first policy and OR in the second, which governs nothing.
    connectives = (("AND", "AND"), ("OR", "OR"), ("AND", "OR"))
    for index, title in enumerate(WIDE_TITLES, start=1):
        pool = draw.phrases(3000, 4, 6)
        shared, only_a, only_b = pool[:1000], pool[1000:2000], pool[2000:]
        for which, own in enumerate((only_a, only_b)):
            phrases = shared + own
            phrases += rng.sample(shared, 20)  # a few phrases repeat
            rng.shuffle(phrases)
            sides[which].append(
                Section(
                    path=(index,),
                    title=title,
                    connective=connectives[index - 1][which],
                    options=[(draw.keyword(), p) for p in phrases],
                    labeled=False,
                )
            )
    return sides


def deep_pair(rng: random.Random) -> tuple[list[Section], list[Section]]:
    """Two outlines over one union tree, 30% of whose sections are one-sided.

    Each section of the union belongs to both policies, or to one of them
    together with its whole subtree, so both trees stay well formed.
    """
    draw = _Draw(rng)
    union = [Section(path=(index,), title=f"PART {title}") for index, title in enumerate(
        ("ALPHA", "BRAVO", "CHARLIE", "DELTA", "ECHO", "FOXTROT", "GOLF", "HOTEL", "INDIA"), start=1
    )]
    _grow(draw, union, total=4700, max_depth=8, chain=0.55)
    for section in walk(union):
        section.options = [(draw.keyword(), p) for p in draw.phrases(rng.randint(1, 4), 2, 4)]
        section.connective = draw.connective()
    # Hand whole subtrees to one side until each side owns 15% of the union,
    # so every pair has the same size and one-sided share.
    owner = {section.path: "both" for section in walk(union)}
    budget = {"a": 705, "b": 705}
    candidates = [s for s in walk(union) if len(s.path) > 1]
    rng.shuffle(candidates)
    for section in candidates:
        which = max(budget, key=budget.get)
        subtree = [s.path for s in section.walk()]
        if len(subtree) <= budget[which] and all(owner[p] == "both" for p in subtree):
            for p in subtree:
                owner[p] = which
            budget[which] -= len(subtree)

    def side(which: str) -> list[Section]:
        def keep(section: Section) -> Section | None:
            if owner[section.path] not in ("both", which):
                return None
            copy = Section(
                path=section.path,
                title=section.title,
                weight=section.weight,
                connective=section.connective,
                options=_drift_options(draw, section.options, keep=0.95, rekey=0.3, respell=0.05),
                children=[c for c in map(keep, section.children) if c is not None],
            )
            if not copy.options:
                copy.options = [(draw.keyword(), draw.phrase(2, 4))]
            return copy

        return [keep(root) for root in union]

    return side("a"), side("b")


SHAPES = {"rfc3647": rfc3647_pair, "wide": wide_pair, "deep": deep_pair}


def generate(workload: str, seed: int, pairs: int) -> list[tuple[list[Section], list[Section]]]:
    rng = random.Random(f"cpcompat-bench:{workload}:{seed}")
    return [SHAPES[workload](rng) for _ in range(pairs)]
