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


class Document:
    def __init__(self, groups: list[GroupBlock]):
        self.groups = groups


_INT = re.compile(r"[+-]?\d+$")
_FACTOR = re.compile(r"a(\d+)(?:\^([+-]?\d+))?$")
_GROUP = re.compile(r"group\s+c=([+-]?\d+)\s+r=([+-]?\d+)$")


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


def parse_document(text: str) -> Document:
    groups: list[GroupBlock] = []
    # pending state while collecting `row` lines
    pending_header: tuple[int, int, int] | None = None  # c, r, lineno
    pending_rows: list[tuple[int, ...]] = []
    in_subgroup = False

    def current() -> GroupBlock:
        _flush()
        if not groups:
            raise ParseError(lineno, 1, "a `group` header is required first")
        return groups[-1]

    def _flush():
        nonlocal pending_header
        if pending_header is not None:
            c, r, at = pending_header
            pending_header = None
            try:
                basis = build_hall_basis(c, r)
                pres = make_quotient_presentation(basis, tuple(pending_rows))
            except (RejectedInput, ValueError) as exc:
                raise ParseError(at, 1, str(exc)) from exc
            pending_rows.clear()
            groups.append(GroupBlock(pres))

    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        key = parts[0]
        if key == "group":
            _flush()
            m = _GROUP.match(line)
            if not m:
                raise ParseError(lineno, 1,
                                 "expected `group c=<int> r=<int>`")
            pending_header = (int(m.group(1)), int(m.group(2)), lineno)
            in_subgroup = False
        elif key == "row":
            vals = tuple(_ints(parts[1:], lineno, raw))
            if pending_header is not None and not in_subgroup:
                pending_rows.append(vals)
            else:
                block = current()
                if not block.subgroups or not in_subgroup:
                    raise ParseError(lineno, 1,
                                     "row outside a group header or subgroup")
                if len(vals) != block.presentation.m:
                    raise ParseError(
                        lineno, 1, f"expected {block.presentation.m} entries,"
                        f" found {len(vals)}")
                block.subgroups[-1] = block.subgroups[-1] + (vals,)
        elif key == "subgroup":
            block = current()
            block.subgroups.append(())
            in_subgroup = True
        elif key == "word":
            block = current()
            in_subgroup = False
            block.words.append(parse_word(parts[1:], lineno, raw))
        elif key == "element":
            block = current()
            in_subgroup = False
            block.elements.append(parse_word(parts[1:], lineno, raw))
        elif key == "progression":
            block = current()
            in_subgroup = False
            vals = _ints(parts[1:], lineno, raw)
            if len(vals) != 2:
                raise ParseError(lineno, 1,
                                 "progression takes exactly two integers")
            if block.progression is not None:
                raise ParseError(lineno, 1,
                                 "a second progression in the group")
            block.progression = (vals[0], vals[1])
        else:
            raise ParseError(lineno, 1, f"unknown section {key!r}")
    _flush()
    return Document(groups)


# ---------------------------------------------------------------------------
# Deterministic formatting.

def format_vector(row) -> str:
    return " ".join(str(v) for v in row)


def format_word(word: ExpWord) -> str:
    parts = [f"a{g}^{x}" for g, x in word if x]
    return " ".join(parts) if parts else "1"
