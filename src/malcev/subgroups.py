"""Row operations, matrix reduction to the unique subgroup full form,
membership with witnesses, and subgroup presentations.

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

from .extgcd import (InternalConsistencyError, RejectedInput, extgcd_bounded,
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
# The five-step reduction.

def full_form_rows(ctx, rows, exprs=None):
    """Unique full form of the subgroup generated by the given reduced
    coordinate vectors, and the derivation of every output row over the
    derivations `exprs` of the input rows (by default, the input rows)."""
    if exprs is None:
        exprs = map(_expr_gen, range(len(rows)))
    # Each work entry is a row with its derivation; `power` and `times` do
    # all the row arithmetic on both.
    work: list = [(tuple(r), ex) for r, ex in zip(rows, exprs)]

    def power(a, l):
        return ctx.pow(a[0], l), _expr_pow(a[1], l)

    def times(a, b, l):  # a * b^l
        return (ctx.mult(a[0], ctx.pow(b[0], l)),
                _expr_mul((a[1], _expr_pow(b[1], l))))

    k = 0
    last_pivot = 0
    while True:
        # Step 5 (and deduplication): drop zero and repeated tail rows.
        seen = set()
        tail = []
        for row, ex in work[k:]:
            if not any(row) or row in seen:
                continue
            seen.add(row)
            tail.append((row, ex))
        work[k:] = tail

        piv = min((first_nonzero(r) for r, _ in work[k:]), default=0)
        if piv == 0:
            break
        if piv <= last_pivot:
            raise InternalConsistencyError("pivot column did not advance")
        n = len(work)

        # Step 1: bounded gcd combination of the pivot column.
        d, ls, _ = extgcd_bounded([work[i][0][piv - 1] for i in range(k, n)])
        new = (ctx.identity, _EXPR_ONE)
        for i, l in zip(range(k, n), ls):
            if l:
                new = times(new, work[i], l)
        if new[0][piv - 1] != d or any(new[0][:piv - 1]):
            raise InternalConsistencyError("gcd row does not lead with the gcd")
        work.append(new)

        # Step 2: clear the column below, reduce above, move the pivot up.
        for i in range(n):
            q = work[i][0][piv - 1] // d
            if q:
                work[i] = times(work[i], new, -q)
        work[k], work[-1] = work[-1], work[k]

        # Step 3: fold in the relator of a torsion pivot column.  The
        # appended trivial relator row is the identity element, so the
        # combination row is plainly h_k^{n1} and the cleared relator row is
        # a genuine power of it.
        if piv in ctx.torsion:
            e = ctx.torsion[piv]
            hk = work[k]
            d_cur = hk[0][piv - 1]
            delta, n1, _ = extgcd_pair_bounded(d_cur, e)
            comb = power(hk, n1)
            if comb[0][piv - 1] != delta or any(comb[0][:piv - 1]):
                raise InternalConsistencyError(
                    "torsion combination does not lead with the gcd")
            work[k] = comb
            work.append(times(hk, comb, -(d_cur // delta)))
            work.append(power(comb, -(e // delta)))
            for j in range(k):
                q = work[j][0][piv - 1] // delta
                if q:
                    work[j] = times(work[j], comb, -q)

        # Step 4: closure under conjugation by the new pivot row, plus the
        # torsion power.
        hk, hk_ex = work[k]
        bound = ctx.m - piv
        if bound > 0:
            hk_inv = ctx.pow(hk, -1)
            appended = []
            for j in range(k + 1, len(work)):
                hj, hj_ex = work[j]
                if not any(hj):
                    continue
                for sign in (1, -1):
                    left = hk_inv if sign == 1 else hk
                    right = hk if sign == 1 else hk_inv
                    cur = hj
                    for l in range(1, bound + 1):
                        nxt = ctx.mult(ctx.mult(left, cur), right)
                        if nxt == cur:
                            break
                        cur = nxt
                        appended.append((cur, _expr_mul((
                            _expr_pow(hk_ex, -sign * l), hj_ex,
                            _expr_pow(hk_ex, sign * l)))))
            work.extend(appended)
        if piv in ctx.torsion:
            work.append(power(work[k], ctx.torsion[piv] // hk[piv - 1]))

        last_pivot = piv
        k += 1

    out = tuple(r for r, _ in work[:k])
    check_echelon_conditions(out, ctx.torsion)
    return out, tuple(ex for _, ex in work[:k])


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
