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

``parse_policy`` is the whole reader: one loop over the lines, holding the
open sections and the diagnostics as locals. Each stripped, non-blank line
is dispatched once, on its first character: only ``/`` can open a comment,
only an ASCII digit a heading, and only ``c`` or ``C`` (the sole characters
whose lower case starts with ``c``) a connection line; all other lines are
options, which need no further test to be told apart. Each kind is read
inline in its branch of the loop. In an option line the label is the text
before the first ``)`` when that text is ASCII letters, the keyword is the
text before the first plain space when that text is a keyword, and
whitespace after either is skipped. Each paragraph is built once, when its
section closes at a later heading of the same or a lower depth or at the
end of input, and is then added to its parent's children.

``parse_policy`` never raises on malformed input; it collects diagnostics
and returns no policy when any of them is an error. ``render_policy``
writes a document that parses back to an equivalent tree.
"""

from __future__ import annotations

import enum
import re

from .model import (
    KEYWORDS,
    MAX_DEPTH,
    Connective,
    NumberPath,
    Paragraph,
    Policy,
    PolicyOption,
    _DOTTED_RE,
    _Frozen,
    slot_setters,
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


class ParseDiagnostic(_Frozen):
    """One problem found while parsing, tied to a 1-based line number."""

    __slots__ = ("severity", "code", "line", "message")

    def __init__(self, severity: Severity, code: str, line: int, message: str) -> None:
        _set_severity(self, severity)
        _set_code(self, code)
        _set_line(self, line)
        _set_message(self, message)

    def __str__(self) -> str:
        return f"line {self.line}: {self.severity._value_.upper()} {self.code}: {self.message}"


_set_severity, _set_code, _set_line, _set_message = slot_setters(ParseDiagnostic)


# The section number is the model's dotted number, ASCII digits only;
# ``\s`` is any unicode whitespace, the set str.strip() removes and
# str.split() splits on, so a title never starts or ends with whitespace.
# The text after the number is the title, less a last token of ASCII digits
# after whitespace, which is the weight.
_HEADING_RE = re.compile(rf"({_DOTTED_RE.pattern})\s+(.+)")

# Members by name, looked up without Enum's Python-level __getitem__.
_CONNECTIVES = {"AND": Connective.AND, "OR": Connective.OR}

# RFC 2119 terms that are not among the format's four keywords.
_OTHER_RFC2119_TERMS = frozenset({"SHALL", "SHOULD", "MAY", "REQUIRED"})


class _Node:
    """Open section: the parts of its paragraph, gathered until it closes."""

    __slots__ = ("path", "title", "weight", "options", "connective", "comments", "children", "labels", "last")

    def __init__(self, path: tuple[int, ...], title: str, weight: int) -> None:
        self.path = path
        self.title = title
        self.weight = weight
        self.options: list[PolicyOption] = []
        self.connective = Connective.NONE
        self.comments: list[str] = []
        self.children: list[Paragraph] = []
        self.labels: set[str] = set()
        # Last segment of the last child linked to this section.
        self.last = 0


def _is_weight(token: str) -> bool:
    """Whether the last token of a heading, after its title, is the weight."""
    return token.isascii() and token.isdigit()


def parse_policy(text: str, name: str = "policy") -> tuple[Policy | None, list[ParseDiagnostic]]:
    """Parse a policy document.

    Returns the policy and the diagnostics found along the way. When any
    diagnostic is an error the policy is None; warnings alone do not
    prevent parsing.
    """
    diagnostics: list[ParseDiagnostic] = []
    # Set by the first error: no policy is returned, so no paragraph is built after it.
    failed = False

    def warn(code: str, line: int, message: str) -> None:
        diagnostics.append(ParseDiagnostic(Severity.WARNING, code, line, message))

    def error(code: str, line: int, message: str) -> None:
        nonlocal failed
        failed = True
        diagnostics.append(ParseDiagnostic(Severity.ERROR, code, line, message))

    def close() -> None:
        """Close the innermost open section: build its paragraph and add it
        to its parent's children. A section that could not be linked to the
        one under it on the stack drew an error, and after any error nothing
        is built."""
        node = stack.pop()
        if not failed:
            stack[-1].children.append(
                Paragraph(
                    NumberPath(node.path),
                    node.title,
                    node.weight,
                    tuple(node.options),
                    node.connective,
                    tuple(node.comments),
                    tuple(node.children),
                )
            )

    root = _Node(path=(), title="", weight=1)
    # Open sections, innermost last, over the pseudo-root (empty path: no section yet).
    stack = [root]
    seen_paths: set[tuple[int, ...]] = set()
    keyword_of = KEYWORDS.get
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        first = line[0]
        current = stack[-1]
        if first == "/" and line[1:2] == "/":
            if current.path:
                current.comments.append(line)
            else:
                warn(
                    "COMMENT_BEFORE_SECTION",
                    line_no,
                    "comment before the first section heading is dropped",
                )
            continue

        if first in "0123456789" and (heading := _HEADING_RE.match(line)):
            number, title = heading.groups()
            weight_text = None
            if title[-1] in "0123456789":
                head_tail = title.rsplit(None, 1)
                if len(head_tail) == 2 and _is_weight(head_tail[1]):
                    title, weight_text = head_tail
            # int() refuses numbers longer than the interpreter's digit limit
            # (sys.get_int_max_str_digits(), 4300 by default).
            try:
                path = tuple(map(int, number.split(".")))
            except ValueError:
                error("BAD_SECTION_NUMBER", line_no, "section number has too many digits")
                continue
            if 0 in path:
                error(
                    "BAD_SECTION_NUMBER",
                    line_no,
                    f"section number {number} contains a zero segment",
                )
                continue
            depth = len(path)
            if depth > MAX_DEPTH:
                error(
                    "DEPTH_LIMIT",
                    line_no,
                    f"section number has {depth} segments, more than {MAX_DEPTH}",
                )
                continue

            weight = 1
            if weight_text is not None:
                try:
                    weight = int(weight_text)
                except ValueError:
                    error("BAD_WEIGHT", line_no, "paragraph weight has too many digits")
                if weight == 0:
                    error("BAD_WEIGHT", line_no, "paragraph weight must be positive")

            if depth > 4:
                warn(
                    "DEPTH_EXCEEDS_4",
                    line_no,
                    f"section {number} is nested deeper than the standard four levels",
                )
            if depth == 1 and title != title.upper():
                warn(
                    "MAIN_SECTION_NOT_CAPS",
                    line_no,
                    f"main section title {title!r} is not upper case",
                )

            # Link the section into its parent. A section that cannot be
            # linked draws one error and is still opened, so its own
            # children parse without cascading errors.
            while len(stack[-1].path) >= depth:
                close()
            parent = stack[-1]
            parent_path = path[:-1]
            if path in seen_paths:
                error("DUPLICATE_SECTION", line_no, f"section {NumberPath(path)} already defined")
            elif parent.path != parent_path:
                if parent_path in seen_paths:
                    error(
                        "SECTION_OUT_OF_ORDER",
                        line_no,
                        f"section {NumberPath(path)} appears after its parent was closed",
                    )
                else:
                    error(
                        "ORPHAN_SECTION",
                        line_no,
                        f"section {NumberPath(path)} has no parent section {NumberPath(parent_path)}",
                    )
            elif parent.last >= path[-1]:
                error(
                    "SECTION_OUT_OF_ORDER",
                    line_no,
                    f"section {NumberPath(path)} does not follow its siblings in order",
                )
            else:
                parent.last = path[-1]
            seen_paths.add(path)
            stack.append(_Node(path, title, weight))
            continue

        if first in "cC" and (tokens := line.split())[0].lower() == "connection":
            if not current.path:
                error(
                    "CONNECTION_BEFORE_SECTION",
                    line_no,
                    "Connection line before the first section heading",
                )
                continue
            connective = _CONNECTIVES.get(tokens[1].upper()) if len(tokens) == 2 else None
            if connective is None:
                error(
                    "BAD_CONNECTIVE",
                    line_no,
                    "Connection line must read 'Connection AND' or 'Connection OR'",
                )
                continue
            if current.connective is not Connective.NONE:
                warn(
                    "DUPLICATE_CONNECTIVE",
                    line_no,
                    "paragraph already declares a connective; the last one wins",
                )
            current.connective = connective
            continue

        # An option line: [label) ][KEYWORD ]phrase.
        if not current.path:
            error(
                "OPTION_BEFORE_SECTION",
                line_no,
                "option line before the first section heading",
            )
            continue

        if first in ".0123456789":
            token = line.split(None, 1)[0]
            if "." in token and token.isascii() and token.replace(".", "").isdigit():
                warn(
                    "HEADING_LIKE_OPTION",
                    line_no,
                    f"option starts with {token!r}, which looks like a section number",
                )

        rest = line
        label, paren, tail = line.partition(")")
        if paren and label.isascii() and label.isalpha():
            if not label.islower():
                warn(
                    "BAD_OPTION_LABEL",
                    line_no,
                    f"option label {label!r} should be lower case",
                )
                label = label.lower()
            if label in current.labels:
                error(
                    "DUPLICATE_OPTION_LABEL",
                    line_no,
                    f"option label {label!r} is already used in this paragraph",
                )
                continue
            current.labels.add(label)
            rest = tail.lstrip()

        # RFC 8174: only the upper-case keywords carry their special
        # meaning, so a look-alike stays phrase text and draws a warning.
        head, _, tail = rest.partition(" ")
        keyword = keyword_of(head)
        if keyword is not None:
            rest = tail.lstrip()
            if head == "MUST" and rest[:4] in ("NOT", "NOT "):
                warn(
                    "KEYWORD_LOOKALIKE",
                    line_no,
                    "'MUST NOT' is read as keyword MUST and a phrase starting with 'NOT'",
                )
        elif head in _OTHER_RFC2119_TERMS or head.removesuffix(":").upper() in KEYWORDS:
            warn(
                "KEYWORD_LOOKALIKE",
                line_no,
                f"option starts with {head!r}, read as phrase text, not as a keyword",
            )
        elif head[:1] in "cC" and head.lower().startswith("connection:"):
            warn(
                "CONNECTION_LOOKALIKE",
                line_no,
                f"option starts with {head!r}, read as phrase text, not as a Connection line",
            )

        if not rest:
            error("EMPTY_OPTION_PHRASE", line_no, "option has no phrase text")
            continue
        current.options.append(PolicyOption(rest, keyword))
    while len(stack) > 1:
        close()
    if failed:
        return None, diagnostics
    return Policy(name=name, roots=tuple(root.children)), diagnostics


def _heading_line(paragraph: Paragraph) -> str:
    title = paragraph.title
    # A title ending in a bare number needs the weight spelled out, or the
    # reparse would read that number as the weight. A title is stripped, so
    # only one whose last character is an ASCII digit can end in one.
    if paragraph.weight != 1 or (
        title[-1] in "0123456789" and _is_weight(title.rsplit(None, 1)[-1])
    ):
        return f"{paragraph.path.dotted} {title} {paragraph.weight}"
    return f"{paragraph.path.dotted} {title}"


def _option_line(option: PolicyOption, label: str) -> str:
    if option.keyword is not None:
        return f"{label}) {option.keyword._name_} {option.phrase}"
    return f"{label}) {option.phrase}"


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _label(index: int) -> str:
    """Label of the option at ``index``, counting from 0: ``a`` to ``z``,
    then ``aa`` to ``zz``, ``aaa`` and on (bijective base 26)."""
    if index < 26:
        return _LETTERS[index]
    return _label(index // 26 - 1) + _LETTERS[index % 26]


def render_policy(policy: Policy) -> str:
    """Write a policy back out in the standardized text format.

    Option labels are assigned in order, ``a)`` to ``z)`` and then ``aa)``,
    ``ab)`` and on, so a paragraph may have any number of options. Parsing
    the output yields a tree equal to the input.
    """
    lines: list[str] = []
    for paragraph in policy.walk():
        lines.append(_heading_line(paragraph))
        lines.extend(paragraph.comments)
        for index, option in enumerate(paragraph.options):
            lines.append(_option_line(option, _label(index)))
        if paragraph.connective is not Connective.NONE:
            lines.append(f"Connection {paragraph.connective._name_}")
    # The empty last line ends the document with a newline.
    lines.append("")
    return "\n".join(lines)
