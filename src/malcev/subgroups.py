"""Row operations, matrix reduction to the unique subgroup full form,
membership with witnesses, and subgroup presentations.

The full form is an induced polycyclic sequence: the generators are sifted
into a table with one row per pivot column, which is then closed under
conjugation and relative-order powers.  Each row carries its derivation.

The reduction is written against a minimal polycyclic context (length of the
coordinate vector, torsion columns with relative orders, and exact group
multiplication/powering on reduced vectors).  Besides a quotient presentation
itself, a componentwise direct product H x G is such a context, with the
H-coordinates preceding the G-coordinates; the kernel computation relies on
that ordering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .extgcd import (InternalConsistencyError, RejectedInput,
                     extgcd_pair_bounded)
from .freegroup import ExpWord, SizeCapExceeded
from .groups import GroupElement
from .presentations import (FullFormMatrix, NilpotentPresentation,
                            QuotientPresentation, _membership_scan,
                            check_echelon_conditions, first_nonzero,
                            free_presentation, reduce_coords)

DEFAULT_WORD_CAP = 1 << 20


# ---------------------------------------------------------------------------
# The product context.

class ProductContext:
    """H x G with concatenated coordinates, H first.

    Multiplication is componentwise, so the factors may have unrelated
    classes and ranks.
    """

    def __init__(self, p_h: QuotientPresentation, p_g: QuotientPresentation):
        self.h = p_h
        self.g = p_g
        self.split = p_h.m
        self.m = p_h.m + p_g.m
        self.torsion = dict(p_h.torsion)
        self.torsion.update({self.split + col: e
                             for col, e in p_g.torsion.items()})
        self.identity = (0,) * self.m

    def mult(self, u, v):
        s = self.split
        return self.h.mult(u[:s], v[:s]) + self.g.mult(u[s:], v[s:])

    def pow(self, u, e):
        s = self.split
        return self.h.pow(u[:s], e) + self.g.pow(u[s:], e)


# ---------------------------------------------------------------------------
# Derivations: expression trees over the original generator symbols, with
# ("g", k) for the 0-based symbol k, ("p", e, l) for e^l and ("m", parts) for
# a product.  Subtrees are shared, so each derivation step costs O(1).

_EXPR_ONE = ("m", ())


def _expr_gen(k: int):
    return ("g", k)


def _expr_pow(e, l: int):
    if l == 0 or e == _EXPR_ONE:
        return _EXPR_ONE
    if l == 1:
        return e
    return ("p", e, l)


def _expr_mul(parts):
    parts = tuple(p for p in parts if p != _EXPR_ONE)
    if len(parts) == 1:
        return parts[0]
    return ("m", parts)


def expand_expression(expr, cap: int = DEFAULT_WORD_CAP) -> ExpWord:
    """Flatten an expression tree to a word over the original generators
    (1-based symbol indices), merging adjacent powers of one symbol."""
    word: list = []
    emitted = 0
    # Entries are (subtree, inverted, repetitions).  An explicit stack, since
    # a long chain of row operations nests deeper than the recursion limit.
    stack = [(expr, False, 1)]
    while stack:
        e, flip, times = stack.pop()
        if times > 1:
            stack.append((e, flip, times - 1))
        if e[0] == "m":
            stack.extend((p, flip, 1)
                         for p in (e[1] if flip else reversed(e[1])))
            continue
        if e[0] == "g":
            sym, x = e[1] + 1, -1 if flip else 1
        else:
            _, base, x = e
            if flip:
                x = -x
            if base[0] != "g":
                stack.append((base, x < 0, abs(x)))
                continue
            sym = base[1] + 1
        if emitted == cap:
            raise SizeCapExceeded(f"expression longer than cap {cap}")
        emitted += 1
        if word and word[-1][0] == sym:
            x += word[-1][1]
            if x:
                word[-1] = (sym, x)
            else:
                word.pop()
        else:
            word.append((sym, x))
    return tuple(word)


@dataclass(frozen=True)
class TrackedExpressions:
    """Derivations of the full-form rows over the original generators."""
    expressions: tuple


# ---------------------------------------------------------------------------
# Sifting into one row per pivot column.

def full_form_rows(ctx, rows, exprs=None):
    """Unique full form of the subgroup generated by the given reduced
    coordinate vectors, and the derivation of every output row over the
    derivations `exprs` of the input rows (by default, the input rows).

    The rows are sifted into a table with one row per pivot column, the
    induced polycyclic sequence of Sims, *Computation with Finitely Presented
    Groups* (1994), ch. 9.  Sifting x divides it by powers of the table rows
    at its pivots; where the row y at x's pivot does not divide x there, the
    bounded pair gcd of the leading entries combines x and y into a new
    table row, and both remainders are sifted.  A column without a row acts
    as the identity with leading entry its relative order, or 0.  Rows enter
    the table reduced at the later pivot columns.  The table is then closed
    by sifting the relative-order power of each torsion row and h_i^-1 h_j h_i
    for each pair of pivots i < j until nothing changes.  One direction is
    enough: by the maximal condition on subgroups, h_i^-1 T h_i <= T forces
    equality for T = <h_{i+1}, ...>.
    """
    if exprs is None:
        exprs = map(_expr_gen, range(len(rows)))
    table: dict = {}  # pivot column -> (row, derivation)

    def power(a, l):
        return ctx.pow(a[0], l), _expr_pow(a[1], l)

    def times(a, b, l):  # a * b^l; mult reduces, so b^1 needs no pow
        return (ctx.mult(a[0], b[0] if l == 1 else ctx.pow(b[0], l)),
                _expr_mul((a[1], _expr_pow(b[1], l))))

    def place(piv, row):
        """Enter a row at its pivot, with its entries at the later pivot
        columns reduced into [0, pivot entry)."""
        for q in sorted(table):
            if q > piv:
                k = row[0][q - 1] // table[q][0][q - 1]
                if k:
                    row = times(row, table[q], -k)
        table[piv] = row
        return row

    def sift(x):
        pending = [x]
        while pending:
            x = pending.pop()
            piv = first_nonzero(x[0])
            while piv:
                a = x[0][piv - 1]
                y = table.get(piv)
                b = ctx.torsion.get(piv, 0) if y is None else y[0][piv - 1]
                if y is None and (b % a == 0 if b else a > 0):
                    place(piv, x)
                    break
                if y is not None and a % b == 0:
                    x = times(x, y, -(a // b))
                else:
                    d, s, t = extgcd_pair_bounded(a, b)
                    new = power(x, s) if y is None else times(power(x, s), y, t)
                    if new[0][piv - 1] != d or any(new[0][:piv - 1]):
                        raise InternalConsistencyError(
                            "combination row does not lead with the gcd")
                    new = place(piv, new)
                    if y is not None:
                        pending.append(times(y, new, -(b // d)))
                    x = times(x, new, -(a // d))
                piv = first_nonzero(x[0])

    for x in zip(map(tuple, rows), exprs):
        sift(x)
    done: set = set()
    while True:
        pairs = itertools.combinations_with_replacement(sorted(table), 2)
        pairs = [(p, q) for p, q in pairs
                 if (table[p][0], table[q][0]) not in done]
        if not pairs:
            break
        for p, q in pairs:
            hp, hq = table[p], table[q]
            done.add((hp[0], hq[0]))
            if p < q:
                sift(times(times(power(hp, -1), hq, 1), hp, 1))
            elif p in ctx.torsion:
                sift(power(hp, ctx.torsion[p] // hp[0][p - 1]))

    # Reduce above the pivots: each row again at the later pivot columns.
    work = [place(p, table[p]) for p in sorted(table)]
    out = tuple(r for r, _ in work)
    check_echelon_conditions(out, ctx.torsion)
    return out, tuple(ex for _, ex in work)


# ---------------------------------------------------------------------------
# Public wrappers in terms of presentations.

@dataclass(frozen=True)
class CoordinateMatrix:
    presentation: QuotientPresentation
    rows: tuple[tuple[int, ...], ...]
    expressions: tuple | None = None  # derivations over the original rows

    def __post_init__(self):
        for r in self.rows:
            if len(r) != self.presentation.m:
                raise RejectedInput(
                    f"rows must have length {self.presentation.m}")


def coordinate_matrix(pres: QuotientPresentation, rows,
                      track: bool = False) -> CoordinateMatrix:
    rows = tuple(tuple(r) for r in rows)
    exprs = tuple(map(_expr_gen, range(len(rows)))) if track else None
    return CoordinateMatrix(pres, rows, exprs)


def apply_row_operation(matrix: CoordinateMatrix, op) -> CoordinateMatrix:
    """One of the five subgroup-preserving row operations.

    op is a tuple: ("swap", i, j); ("combine", i, j, l) replacing row i by
    h_i h_j^l; ("add_trivial",); ("add_relator", col); ("remove", i) for a
    trivial row; ("invert", i); ("append_product", ((i1, l1), ...)).
    Row indices are 1-based.
    """
    pres = matrix.presentation
    rows = list(matrix.rows)
    exprs = list(matrix.expressions) if matrix.expressions is not None else None

    def check(i):
        if not 1 <= i <= len(rows):
            raise RejectedInput(f"row index {i} out of range")

    kind = op[0]
    if kind == "swap":
        _, i, j = op
        check(i), check(j)
        rows[i - 1], rows[j - 1] = rows[j - 1], rows[i - 1]
        if exprs is not None:
            exprs[i - 1], exprs[j - 1] = exprs[j - 1], exprs[i - 1]
    elif kind == "combine":
        _, i, j, l = op
        check(i), check(j)
        if i == j:
            raise RejectedInput("combine requires distinct rows")
        rows[i - 1] = pres.mult(rows[i - 1], pres.pow(rows[j - 1], l))
        if exprs is not None:
            exprs[i - 1] = _expr_mul((exprs[i - 1],
                                      _expr_pow(exprs[j - 1], l)))
    elif kind == "add_trivial":
        rows.append(pres.identity)
        if exprs is not None:
            exprs.append(_EXPR_ONE)
    elif kind == "add_relator":
        _, col = op
        if col not in pres.torsion:
            raise RejectedInput(f"column {col} is not a torsion column")
        rows.append(pres.torsion_rows[col])
        if exprs is not None:
            exprs.append(_EXPR_ONE)
    elif kind == "remove":
        _, i = op
        check(i)
        if any(reduce_coords(pres, rows[i - 1])):
            raise RejectedInput("only trivial rows can be removed")
        del rows[i - 1]
        if exprs is not None:
            del exprs[i - 1]
    elif kind == "invert":
        _, i = op
        check(i)
        rows[i - 1] = pres.pow(rows[i - 1], -1)
        if exprs is not None:
            exprs[i - 1] = _expr_pow(exprs[i - 1], -1)
    elif kind == "append_product":
        _, factors = op
        acc = pres.identity
        for i, l in factors:
            check(i)
            acc = pres.mult(acc, pres.pow(rows[i - 1], l))
        rows.append(acc)
        if exprs is not None:
            exprs.append(_expr_mul(tuple(_expr_pow(exprs[i - 1], l)
                                         for i, l in factors)))
    else:
        raise RejectedInput(f"unknown row operation {kind!r}")
    return CoordinateMatrix(pres, tuple(rows),
                            tuple(exprs) if exprs is not None else None)


def full_form(pres: QuotientPresentation, matrix: CoordinateMatrix,
              track: bool = False) -> tuple[FullFormMatrix, TrackedExpressions | None]:
    """Full form of the subgroup the matrix rows generate.  With `track`,
    the derivation of every full-form row over the original rows of a
    tracked matrix, or over the current rows of an untracked one."""
    rows = [reduce_coords(pres, r) for r in matrix.rows]
    out, exprs = full_form_rows(pres, rows, matrix.expressions)
    return FullFormMatrix(out), (TrackedExpressions(exprs) if track else None)


def full_form_free(basis, rows) -> tuple[tuple[int, ...], ...]:
    """Full form over the free nilpotent group itself."""
    return full_form_rows(free_presentation(basis.c, basis.r),
                          [tuple(r) for r in rows])[0]


# ---------------------------------------------------------------------------
# Membership.

@dataclass(frozen=True)
class MembershipWitness:
    gamma: tuple[int, ...]


def membership(pres: QuotientPresentation, form: FullFormMatrix,
               h: GroupElement) -> MembershipWitness | None:
    """Witness exponents over the full-form rows, or None for non-members."""
    if h.presentation != pres:
        raise RejectedInput("element belongs to a different presentation")
    gamma = _membership_scan(pres, form.rows, h.coords)
    if gamma is None:
        return None
    return MembershipWitness(tuple(gamma))


def express_in_original_generators(tracked: TrackedExpressions,
                                   witness: MembershipWitness,
                                   cap: int = DEFAULT_WORD_CAP) -> ExpWord:
    """Word over the original generators evaluating to the witnessed element."""
    if tracked is None:
        raise RejectedInput("full form was computed without tracking")
    parts = [_expr_pow(ex, g)
             for ex, g in zip(tracked.expressions, witness.gamma) if g]
    return expand_expression(_expr_mul(tuple(parts)), cap=cap)


# ---------------------------------------------------------------------------
# Subgroup presentations.

def subgroup_presentation(pres: QuotientPresentation,
                          gens: CoordinateMatrix) -> NilpotentPresentation:
    form, _ = full_form(pres, gens)
    rows = form.rows
    s = len(rows)

    def against_suffix(j: int, target) -> tuple[int, ...]:
        """Tail vector of an element of <g_{j+1}, ..., g_s>."""
        gamma = _membership_scan(pres, rows[j:], target)
        if gamma is None:
            raise InternalConsistencyError(
                "relation tail escapes the suffix subgroup")
        return (0,) * j + tuple(gamma)

    orders: list[int | None] = []
    power_tails: dict[int, tuple[int, ...]] = {}
    for i, row in enumerate(rows, start=1):
        piv = first_nonzero(row)
        e = pres.torsion.get(piv)
        if e is None:
            orders.append(None)
            continue
        order = e // row[piv - 1]
        orders.append(order)
        power_tails[i] = against_suffix(i, pres.pow(row, order))

    alpha: dict[tuple[int, int], tuple[int, ...]] = {}
    beta: dict[tuple[int, int], tuple[int, ...]] = {}
    inv = {i: pres.pow(rows[i], -1) for i in range(s)}
    for i, j in itertools.combinations(range(s), 2):
        for gj, table in ((rows[j], alpha), (inv[j], beta)):
            head = pres.mult(rows[i], gj)
            tail = pres.mult(pres.pow(head, -1), pres.mult(gj, rows[i]))
            table[(i + 1, j + 1)] = against_suffix(j + 1, tail)

    return NilpotentPresentation(s=s, orders=tuple(orders),
                                 power_tails=power_tails, alpha=alpha,
                                 beta=beta)
