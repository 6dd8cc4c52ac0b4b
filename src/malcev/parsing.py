"""Text grammar shared by the CLI and test fixtures.

A document is a sequence of sections:

    group c=<int> r=<int>     header introducing a presentation
    row <int> ... <int>       relator row (directly after the header) or
                              subgroup row (after a `subgroup` line)
    subgroup                  starts a subgroup generator matrix
    word a<k>^<exp> ...       a word over the basis letters
    element a<k>^<exp> ...    a distinguished element (e.g. preimage target)
    progression <a> <b>       arithmetic progression a + b*Z, one per group

Blank lines and lines starting with `#` are ignored.  All integers are
decimal with an optional sign and unbounded magnitude.
"""

from __future__ import annotations

import re

from .extgcd import RejectedInput
from .freegroup import ExpWord, build_hall_basis
from .presentations import QuotientPresentation, make_quotient_presentation


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class GroupBlock:
    def __init__(self, presentation: QuotientPresentation):
        self.presentation = presentation
        self.subgroups: list[tuple[tuple[int, ...], ...]] = []
        self.words: list[ExpWord] = []
        self.elements: list[ExpWord] = []
        self.progression: tuple[int, int] | None = None


_INT = re.compile(r"[+-]?\d+$")
_FACTOR = re.compile(r"a(\d+)(?:\^([+-]?\d+))?$")
_GROUP = re.compile(r"group\s+c=([+-]?\d+)\s+r=([+-]?\d+)$")
_SECTIONS = ("group", "subgroup", "word", "element", "progression")


def _column(line: str, parts: list[str], i: int) -> int:
    """1-based column of parts[i] in the line, where parts is a suffix of
    `line.split()`."""
    starts = [m.start() for m in re.finditer(r"\S+", line)]
    return starts[len(starts) - len(parts) + i] + 1


def _ints(parts: list[str], lineno: int, line: str) -> list[int]:
    out = []
    for i, p in enumerate(parts):
        if not _INT.match(p):
            raise ParseError(lineno, _column(line, parts, i),
                             f"expected an integer, found {p!r}")
        out.append(int(p))
    return out


def parse_word(parts: list[str], lineno: int, line: str) -> ExpWord:
    factors = []
    for i, p in enumerate(parts):
        m = _FACTOR.match(p)
        if not m:
            raise ParseError(lineno, _column(line, parts, i),
                             f"expected a factor like a2^-3, found {p!r}")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        factors.append((int(m.group(1)), exp))
    return tuple(factors)


def parse_document(text: str) -> list[GroupBlock]:
    """The document's groups, in order.  Each is built at its first line
    that is not a relator row, where an invalid header or relator raises."""
    groups: list[GroupBlock] = []
    header = None  # c, r, line and relator rows of a group not yet built
    section = None  # the key of the last line that is not a `row`

    def block() -> GroupBlock:
        """The last group, built first if its header is pending."""
        nonlocal header
        if header is not None:
            c, r, at, rows = header
            header = None
            try:
                pres = make_quotient_presentation(build_hall_basis(c, r),
                                                  tuple(rows))
            except (RejectedInput, ValueError) as exc:
                raise ParseError(at, 1, str(exc)) from exc
            groups.append(GroupBlock(pres))
        if not groups:
            raise ParseError(lineno, 1, "a `group` header is required first")
        return groups[-1]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key = parts[0]
        if key == "row":
            vals = tuple(_ints(parts[1:], lineno, raw))
            if header is not None:
                header[3].append(vals)
                continue
            current = block()
            if section != "subgroup":
                raise ParseError(lineno, 1,
                                 "row outside a group header or subgroup")
            width = current.presentation.m
            if len(vals) != width:
                raise ParseError(lineno, 1,
                                 f"expected {width} entries, found {len(vals)}")
            current.subgroups[-1] += (vals,)
            continue
        if key not in _SECTIONS:
            raise ParseError(lineno, 1, f"unknown section {key!r}")
        current = block() if header is not None or key != "group" else None
        section = key
        if key == "group":
            m = _GROUP.match(line)
            if not m:
                raise ParseError(lineno, 1,
                                 "expected `group c=<int> r=<int>`")
            header = (int(m.group(1)), int(m.group(2)), lineno, [])
        elif key == "subgroup":
            current.subgroups.append(())
        elif key == "progression":
            vals = _ints(parts[1:], lineno, raw)
            if len(vals) != 2:
                raise ParseError(lineno, 1,
                                 "progression takes exactly two integers")
            if current.progression is not None:
                raise ParseError(lineno, 1,
                                 "a second progression in the group")
            current.progression = (vals[0], vals[1])
        else:
            (current.words if key == "word" else current.elements).append(
                parse_word(parts[1:], lineno, raw))
    if header is not None:
        block()
    return groups


# ---------------------------------------------------------------------------
# Deterministic formatting.

def format_vector(row) -> str:
    return " ".join(str(v) for v in row)


def format_word(word: ExpWord) -> str:
    parts = [f"a{g}^{x}" for g, x in word if x]
    return " ".join(parts) if parts else "1"
