"""Parser and renderer for the standardized policy text format.

A policy document is a sequence of lines. Structure comes entirely from
the section numbers, never from indentation:

* ``1.2.3 Title 4``    - section heading; the optional trailing integer
  is the paragraph weight (default 1).
* ``// remark``        - comment, attached to the current paragraph.
* ``Connection AND``   - declares how the current paragraph's options
  combine (``AND`` or ``OR``, case-insensitive).
* anything else        - an option of the current paragraph, written as
  ``[x) ][KEYWORD ]phrase`` with a label of ASCII letters and one of the
  requirement keywords MUST, RECOMMENDED, OPTIONAL, NOT (case-sensitive).

Each stripped, non-blank line is dispatched once, on its first character:
only ``/`` can open a comment, only an ASCII digit a heading, and only ``c``
or ``C`` (the sole characters whose lower case starts with ``c``) a
connection line; all other lines are options, which need no further test
to be told apart. One reader, in ``parse_policy``'s line loop, reads every
option line: the label is the text before the first ``)`` when that text
is ASCII letters, the keyword is the text before the first plain space
when that text is a keyword, and whitespace after either is skipped.

``parse_policy`` never raises on malformed input; it collects diagnostics
and returns no policy when any of them is an error. ``render_policy``
writes a document that parses back to an equivalent tree.
"""

from __future__ import annotations

import enum
import re
import string
from dataclasses import dataclass

from .model import (
    KEYWORDS,
    MAX_DEPTH,
    Connective,
    NumberPath,
    Paragraph,
    Policy,
    PolicyOption,
)

__all__ = [
    "Severity",
    "ParseDiagnostic",
    "parse_policy",
    "render_policy",
]


class Severity(enum.Enum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    """One problem found while parsing, tied to a 1-based line number."""

    severity: Severity
    code: str
    line: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.severity._value_.upper()} {self.code}: {self.message}"


# Numbers are ASCII digits only; ``\s`` is any unicode whitespace, the set
# str.strip() removes and str.split() splits on, so a title never starts or
# ends with whitespace. The text after the number is the title, less a last
# token of ASCII digits after whitespace, which is the weight.
_HEADING_RE = re.compile(r"([0-9]+(?:\.[0-9]+)*)\s+(.+)")
_DOTTED_NUMBER_RE = re.compile(r"^[0-9.]+$")

# Members by name, looked up without Enum's Python-level __getitem__.
_CONNECTIVES = {"AND": Connective.AND, "OR": Connective.OR}

class _Node:
    """Mutable paragraph under construction."""

    __slots__ = ("path", "title", "weight", "options", "connective", "comments", "children", "labels")

    def __init__(self, path: tuple[int, ...], title: str, weight: int) -> None:
        self.path = path
        self.title = title
        self.weight = weight
        self.options: list[PolicyOption] = []
        self.connective = Connective.NONE
        self.comments: list[str] = []
        self.children: list[_Node] = []
        self.labels: set[str] = set()


class _Parser:
    def __init__(self) -> None:
        self.diagnostics: list[ParseDiagnostic] = []
        self.root = _Node(path=(), title="", weight=1)
        # Open sections, innermost last, over the pseudo-root (empty path: no section yet).
        self.stack: list[_Node] = [self.root]
        self.seen_paths: set[tuple[int, ...]] = set()

    def warn(self, code: str, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(Severity.WARNING, code, line, message))

    def error(self, code: str, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(Severity.ERROR, code, line, message))

    def handle_comment(self, line_no: int, line: str) -> None:
        current = self.stack[-1]
        if not current.path:
            self.warn(
                "COMMENT_BEFORE_SECTION",
                line_no,
                "comment before the first section heading is dropped",
            )
            return
        current.comments.append(line)

    def handle_heading(self, line_no: int, match: re.Match[str]) -> None:
        number, title = match.groups()
        weight_text = None
        head_tail = title.rsplit(None, 1)
        if len(head_tail) == 2 and _is_weight(head_tail[1]):
            title, weight_text = head_tail
        # int() refuses numbers longer than the interpreter's digit limit
        # (sys.get_int_max_str_digits(), 4300 by default).
        try:
            segments = tuple(map(int, number.split(".")))
        except ValueError:
            self.error("BAD_SECTION_NUMBER", line_no, "section number has too many digits")
            return
        if 0 in segments:
            self.error(
                "BAD_SECTION_NUMBER",
                line_no,
                f"section number {number} contains a zero segment",
            )
            return
        depth = len(segments)
        if depth > MAX_DEPTH:
            self.error(
                "DEPTH_LIMIT",
                line_no,
                f"section number has {depth} segments, more than {MAX_DEPTH}",
            )
            return

        weight = 1
        if weight_text is not None:
            try:
                weight = int(weight_text)
            except ValueError:
                self.error("BAD_WEIGHT", line_no, "paragraph weight has too many digits")
            if weight == 0:
                self.error("BAD_WEIGHT", line_no, "paragraph weight must be positive")
                weight = 1

        if depth > 4:
            self.warn(
                "DEPTH_EXCEEDS_4",
                line_no,
                f"section {number} is nested deeper than the standard four levels",
            )
        if depth == 1 and title != title.upper():
            self.warn(
                "MAIN_SECTION_NOT_CAPS",
                line_no,
                f"main section title {title!r} is not upper case",
            )

        self.attach(line_no, _Node(segments, title, weight), depth)

    def attach(self, line_no: int, node: _Node, depth: int) -> None:
        """Link a section of ``depth`` segments into its parent. A section
        that cannot be linked draws one error and is still opened, so its own
        children parse without cascading errors."""
        while len(self.stack[-1].path) >= depth:
            self.stack.pop()
        parent = self.stack[-1]
        parent_path = node.path[:-1]
        if node.path in self.seen_paths:
            self.error(
                "DUPLICATE_SECTION", line_no, f"section {_dotted(node.path)} already defined"
            )
        elif parent.path != parent_path:
            if parent_path in self.seen_paths:
                self.error(
                    "SECTION_OUT_OF_ORDER",
                    line_no,
                    f"section {_dotted(node.path)} appears after its parent was closed",
                )
            else:
                self.error(
                    "ORPHAN_SECTION",
                    line_no,
                    f"section {_dotted(node.path)} has no parent section {_dotted(parent_path)}",
                )
        elif parent.children and parent.children[-1].path[-1] >= node.path[-1]:
            self.error(
                "SECTION_OUT_OF_ORDER",
                line_no,
                f"section {_dotted(node.path)} does not follow its siblings in order",
            )
        else:
            parent.children.append(node)
        self.seen_paths.add(node.path)
        self.stack.append(node)

    def handle_connection(self, line_no: int, tokens: list[str]) -> None:
        current = self.stack[-1]
        if not current.path:
            self.error(
                "CONNECTION_BEFORE_SECTION",
                line_no,
                "Connection line before the first section heading",
            )
            return
        connective = _CONNECTIVES.get(tokens[1].upper()) if len(tokens) == 2 else None
        if connective is None:
            self.error(
                "BAD_CONNECTIVE",
                line_no,
                "Connection line must read 'Connection AND' or 'Connection OR'",
            )
            return
        if current.connective is not Connective.NONE:
            self.warn(
                "DUPLICATE_CONNECTIVE",
                line_no,
                "paragraph already declares a connective; the last one wins",
            )
        current.connective = connective

    def build(self, name: str) -> Policy | None:
        if any(d.severity is Severity.ERROR for d in self.diagnostics):
            return None
        return Policy(name=name, roots=tuple(self.freeze(c) for c in self.root.children))

    def freeze(self, node: _Node) -> Paragraph:
        return Paragraph(
            NumberPath(node.path),
            node.title,
            node.weight,
            tuple(node.options),
            node.connective,
            tuple(node.comments),
            tuple([self.freeze(c) for c in node.children]),
        )


def _is_weight(token: str) -> bool:
    """Whether the last token of a heading, after its title, is the weight."""
    return token.isascii() and token.isdigit()


def _dotted(path: tuple[int, ...]) -> str:
    """Dotted spelling of a section number, for diagnostics only."""
    return ".".join(map(str, path))


def parse_policy(text: str, name: str = "policy") -> tuple[Policy | None, list[ParseDiagnostic]]:
    """Parse a policy document.

    Returns the policy and the diagnostics found along the way. When any
    diagnostic is an error the policy is None; warnings alone do not
    prevent parsing.
    """
    parser = _Parser()
    stack = parser.stack
    keyword_of = KEYWORDS.get
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        first = line[0]
        if first == "/" and line[1:2] == "/":
            parser.handle_comment(line_no, line)
            continue
        if first in "0123456789" and (heading := _HEADING_RE.match(line)):
            parser.handle_heading(line_no, heading)
            continue
        if first in "cC" and (tokens := line.split())[0].lower() == "connection":
            parser.handle_connection(line_no, tokens)
            continue

        # An option line: [label) ][KEYWORD ]phrase.
        current = stack[-1]
        if not current.path:
            parser.error(
                "OPTION_BEFORE_SECTION",
                line_no,
                "option line before the first section heading",
            )
            continue

        if first in ".0123456789":
            token = line.split(None, 1)[0]
            if _DOTTED_NUMBER_RE.match(token) and "." in token and any(c.isdigit() for c in token):
                parser.warn(
                    "HEADING_LIKE_OPTION",
                    line_no,
                    f"option starts with {token!r}, which looks like a section number",
                )

        rest = line
        label, paren, tail = line.partition(")")
        if paren and label.isascii() and label.isalpha():
            if not label.islower():
                parser.warn(
                    "BAD_OPTION_LABEL",
                    line_no,
                    f"option label {label!r} should be lower case",
                )
                label = label.lower()
            if label in current.labels:
                parser.error(
                    "DUPLICATE_OPTION_LABEL",
                    line_no,
                    f"option label {label!r} is already used in this paragraph",
                )
                continue
            current.labels.add(label)
            rest = tail.lstrip()

        head, _, tail = rest.partition(" ")
        keyword = keyword_of(head)
        if keyword is not None:
            rest = tail.lstrip()

        if not rest:
            parser.error("EMPTY_OPTION_PHRASE", line_no, "option has no phrase text")
            continue
        current.options.append(PolicyOption(rest, keyword))
    return parser.build(name), parser.diagnostics


def _heading_line(paragraph: Paragraph) -> str:
    title = paragraph.title
    # A title ending in a bare number needs the weight spelled out, or the
    # reparse would read that number as the weight.
    if paragraph.weight != 1 or _is_weight(title.split()[-1]):
        return f"{paragraph.path.dotted} {title} {paragraph.weight}"
    return f"{paragraph.path.dotted} {title}"


def _option_line(option: PolicyOption, label: str) -> str:
    if option.keyword is not None:
        return f"{label}) {option.keyword._name_} {option.phrase}"
    return f"{label}) {option.phrase}"


def _label(index: int) -> str:
    """Label of the option at ``index``, counting from 0: ``a`` to ``z``,
    then ``aa`` to ``zz``, ``aaa`` and on (bijective base 26)."""
    if index < 26:
        return string.ascii_lowercase[index]
    return _label(index // 26 - 1) + string.ascii_lowercase[index % 26]


def _render_paragraph(paragraph: Paragraph, out: list[str]) -> None:
    out.append(_heading_line(paragraph))
    out.extend(paragraph.comments)
    for index, option in enumerate(paragraph.options):
        out.append(_option_line(option, _label(index)))
    if paragraph.connective is not Connective.NONE:
        out.append(f"Connection {paragraph.connective._name_}")
    for child in paragraph.children:
        _render_paragraph(child, out)


def render_policy(policy: Policy) -> str:
    """Write a policy back out in the standardized text format.

    Option labels are assigned in order, ``a)`` to ``z)`` and then ``aa)``,
    ``ab)`` and on, so a paragraph may have any number of options. Parsing
    the output yields a tree equal to the input.
    """
    lines: list[str] = []
    for root in policy.roots:
        _render_paragraph(root, lines)
    return "".join(line + "\n" for line in lines)
