"""Reduction of a coordinate matrix to the unique subgroup full form,
membership with witnesses, and subgroup presentations.

The full form is an induced polycyclic sequence: the generators are sifted
into a table with one row per pivot column, which is then closed under
conjugation and relative-order powers.  Each row carries its derivation.

The reduction is written against a minimal polycyclic context (length of the
coordinate vector, torsion columns with relative orders, exact group
multiplication/powering on reduced vectors, and a class `c` with the column
weights `weights` that bound where rows commute).  Besides a quotient
presentation itself, a componentwise direct product H x G is such a
context, with the H-coordinates preceding the G-coordinates; the kernel
computation relies on that ordering.

No field of a coordinate matrix or a membership witness is assigned after
construction: they are treated as immutable, which nothing enforces.
"""

from __future__ import annotations

import itertools

from .extgcd import (InternalConsistencyError, RejectedInput,
                     extgcd_pair_bounded)
from .freegroup import (ExpWord, SizeCapExceeded, check_lengths,
                        commute_by_weight)
from .groups import GroupElement
from .presentations import (FullFormMatrix, NilpotentPresentation,
                            QuotientPresentation, check_echelon_conditions,
                            first_nonzero, reduce_coords)

DEFAULT_WORD_CAP = 1 << 20


# ---------------------------------------------------------------------------
# The product context.

class ProductContext:
    """H x G with concatenated coordinates, H first.

    Multiplication is componentwise, so the factors may have unrelated
    classes and ranks.  The class is the larger of the two.  A G column
    keeps its weight in G, but an H column weighs 1: a row whose first
    nonzero column is in H has an arbitrary G part.
    """

    def __init__(self, p_h: QuotientPresentation, p_g: QuotientPresentation):
        self.h = p_h
        self.g = p_g
        self.split = p_h.m
        self.m = p_h.m + p_g.m
        self.c = max(p_h.c, p_g.c)
        self.torsion = dict(p_h.torsion)
        self.torsion.update({self.split + col: e
                             for col, e in p_g.torsion.items()})
        self.identity = (0,) * self.m
        self.weights = (0,) + (1,) * self.split + p_g.weights[1:]

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
    parts = tuple([p for p in parts if p != _EXPR_ONE])
    if len(parts) == 1:
        return parts[0]
    return ("m", parts)


def expand_expression(expr) -> ExpWord:
    """Flatten an expression tree to a word over the original generators
    (1-based symbol indices), merging adjacent powers of one symbol.  Raises
    SizeCapExceeded past DEFAULT_WORD_CAP letters, read at call time."""
    cap = DEFAULT_WORD_CAP
    word: list = []
    emitted = 0
    # Entries are (subtree, inverted, repetitions).  An explicit stack, since
    # a long chain of products nests deeper than the recursion limit.
    stack = [(expr, False, 1)]
    while stack:
        e, flip, times = stack.pop()
        if times > 1:
            stack.append((e, flip, times - 1))
        if e[0] == "m":
            stack.extend([(p, flip, 1)
                          for p in (e[1] if flip else reversed(e[1]))])
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


# ---------------------------------------------------------------------------
# Sifting into one row per pivot column, on (row, derivation) pairs.

def _power(ctx, a, l):
    """The pair a^l."""
    return ctx.pow(a[0], l), _expr_pow(a[1], l)


def _times(ctx, a, b, l):
    """The pair a * b^l; mult reduces, so b^1 needs no pow, and an
    untracked b leaves a's derivation as it is."""
    row = ctx.mult(a[0], b[0] if l == 1 else ctx.pow(b[0], l))
    if b[1] is _EXPR_ONE:
        return row, a[1]
    return row, _expr_mul((a[1], _expr_pow(b[1], l)))


def full_form_rows(ctx, rows, exprs=None, conjugators=()):
    """Unique full form of the smallest subgroup that contains the given
    reduced coordinate vectors and is normalized by the `conjugators`, and,
    when the derivations `exprs` of the input rows are given, the derivation
    of every output row over them and the conjugators, whose symbols are
    numbered after the input rows (None otherwise).

    The rows are sifted into a table with one row per pivot column, the
    induced polycyclic sequence of Sims, *Computation with Finitely Presented
    Groups* (1994), ch. 9.  Sifting x divides it by powers of the table rows
    at its pivots; where the row y at x's pivot does not divide x there, the
    bounded pair gcd of the leading entries combines x and y into a new
    table row, and both remainders are sifted.  A column without a row acts
    as the identity with leading entry its relative order, or 0.  Rows enter
    the table reduced at the later pivot columns.  The table is then closed
    by sifting the relative-order power of each torsion row, h_i^-1 h_j h_i
    for each pair of pivots i < j, and x^-1 h x for each row h and each
    conjugator x, until nothing changes.  One direction is enough: by the
    maximal condition on subgroups, y^-1 T y <= T forces equality, for
    T = <h_{i+1}, ...> and y = h_i, and for the whole table T and y = x.
    With the generators of the group as conjugators, the result is the
    full form of the normal closure.

    The closure skips what commutes by weight (`commute_by_weight`).  A row
    whose pivot has weight w lies in Γ_w, and [Γ_i, Γ_j] <= Γ_{i+j}, which
    is trivial past the class c.  So h_i^-1 h_j h_i = h_j when the weights
    of pivots i and j sum past c, and x^-1 h x = h when those of x's pivot
    and h's pivot do; an identity conjugator is skipped too.  Sifting a
    table row changes nothing, so the output is the same.  In a product
    context an H column weighs 1, since its row's G part is arbitrary.  The
    relative-order power of each torsion row is not skipped by weight: it
    is not a commutator.

    The closure also skips what would sift to the identity.  Let `full` be
    the first column from which on every column has a table row that leads
    with 1 or has relative order 1.  A reduced x whose pivot f is at or
    after `full` is divided at f by the row there to its x_f-th power, which
    clears f, since coordinate f is additive on the elements supported from
    f on (half by half in a product context), and a reduced x is 0 at a
    column of relative order 1; so x sifts to the identity and changes
    nothing.  The relative-order power of h_p is supported after p.
    x^-1 h_p x = h_p [h_p, x] and h_p^-1 h_q h_p = h_q [h_q, h_p] are h c,
    with h the table row at their pivot and c supported after it, and the
    sift divides them by h to h c h^-1, supported after it too.  So the
    power and the conjugates of h_p are skipped when p + 1 >= `full`, and
    the pair when q + 1 >= `full`.  A row that leads with 1 is never
    replaced, so `full` never moves right and what is skipped once stays
    skippable.
    """
    tracked = exprs is not None
    if tracked:
        syms = map(_expr_gen, itertools.count(len(rows)))  # after the rows
    else:  # untracked rows carry the placeholder and build no trees
        exprs = syms = itertools.repeat(_EXPR_ONE)
    conj = [(_power(ctx, x, -1), x) for x in zip(map(tuple, conjugators), syms)
            if any(x[0])]
    conj_pivots = [first_nonzero(x[0]) for _, x in conj]
    table: dict = {}  # pivot column -> (row, derivation)

    def place(piv, row):
        """Enter a row at its pivot, with its entries at the later pivot
        columns reduced into [0, pivot entry)."""
        for q in sorted(table):
            if q > piv:
                k = row[0][q - 1] // table[q][0][q - 1]
                if k:
                    row = _times(ctx, row, table[q], -k)
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
                    x = _times(ctx, x, y, -(a // b))
                else:
                    d, s, t = extgcd_pair_bounded(a, b)
                    new = _power(ctx, x, s)
                    new = new if y is None else _times(ctx, new, y, t)
                    if new[0][piv - 1] != d or any(new[0][:piv - 1]):
                        raise InternalConsistencyError(
                            "combination row does not lead with the gcd")
                    new = place(piv, new)
                    if y is not None:
                        pending.append(_times(ctx, y, new, -(b // d)))
                    x = _times(ctx, x, new, -(a // d))
                piv = first_nonzero(x[0])

    for x in zip(map(tuple, rows), exprs):
        sift(x)
    done: set = set()  # (h_i, h_j) rows and (k, h row) for conjugator k
    while True:
        before = dict(table)
        full = ctx.m + 1  # every column from here on leads with 1 or is trivial
        for p in range(ctx.m, 0, -1):
            if ctx.torsion.get(p) != 1 and (p not in table
                                            or table[p][0][p - 1] != 1):
                break
            full = p
        live = [p for p in sorted(table) if p + 1 < full]
        pairs = itertools.combinations_with_replacement(live, 2)
        pairs = [(p, q) for p, q in pairs
                 if (p in ctx.torsion if p == q
                     else not commute_by_weight(ctx, p, q))
                 and (table[p][0], table[q][0]) not in done]
        conjugates = [(k, p) for k in range(len(conj)) for p in live
                      if not commute_by_weight(ctx, conj_pivots[k], p)
                      and (k, table[p][0]) not in done]
        if not pairs and not conjugates:
            break
        for k, p in conjugates:
            (x_inv, x), h = conj[k], table[p]
            done.add((k, h[0]))
            sift(_times(ctx, _times(ctx, x_inv, h, 1), x, 1))
        for p, q in pairs:
            hp, hq = table[p], table[q]
            done.add((hp[0], hq[0]))
            if p < q:
                sift(_times(ctx, _times(ctx, _power(ctx, hp, -1), hq, 1),
                            hp, 1))
            else:
                sift(_power(ctx, hp, ctx.torsion[p] // hp[0][p - 1]))
        if table == before:  # then the next pass finds everything done
            break

    # Reduce above the pivots: each row again at the later pivot columns.
    work = [place(p, table[p]) for p in sorted(table)]
    out = tuple(r for r, _ in work)
    check_echelon_conditions(out, ctx.torsion)
    return out, tuple(ex for _, ex in work) if tracked else None


# ---------------------------------------------------------------------------
# Public wrappers in terms of presentations.

class CoordinateMatrix:
    def __init__(self, presentation: QuotientPresentation,
                 rows: tuple[tuple[int, ...], ...],
                 expressions: tuple | None = None):
        check_lengths(presentation.basis, *rows)
        self.presentation = presentation
        self.rows = rows
        self.expressions = expressions  # derivations over the original rows


def coordinate_matrix(pres: QuotientPresentation, rows,
                      track: bool = False) -> CoordinateMatrix:
    rows = tuple(tuple(r) for r in rows)
    exprs = tuple(map(_expr_gen, range(len(rows)))) if track else None
    return CoordinateMatrix(pres, rows, exprs)


def full_form(pres: QuotientPresentation, matrix: CoordinateMatrix,
              track: bool = False) -> tuple[FullFormMatrix, tuple | None]:
    """Full form of the subgroup the matrix rows generate.  With `track`,
    the tuple of derivations of the full-form rows over the original rows of
    a tracked matrix, or over the current rows of an untracked one (None
    without `track`)."""
    if matrix.presentation != pres:
        raise RejectedInput("matrix belongs to a different presentation")
    rows = [reduce_coords(pres, r) for r in matrix.rows]
    exprs = (matrix.expressions or tuple(map(_expr_gen, range(len(rows))))
             if track else None)
    out, exprs = full_form_rows(pres, rows, exprs)
    return FullFormMatrix(out), exprs


# ---------------------------------------------------------------------------
# Membership.

class MembershipWitness:
    def __init__(self, gamma: tuple[int, ...]):
        self.gamma = gamma


def _membership_scan(ctx, rows, h, pivots=None):
    """Exponents gamma with h = g_1^{gamma_1} ... g_s^{gamma_s}, or None.
    `pivots` are the pivot columns of the rows, where the caller has them."""
    cur = tuple(h)
    f = first_nonzero(cur)
    gamma = []
    for row, piv in zip(rows, pivots or map(first_nonzero, rows)):
        if f == 0 or f > piv:
            gamma.append(0)
            continue
        if f < piv:
            return None
        a = row[piv - 1]
        if cur[f - 1] % a:
            return None
        q = cur[f - 1] // a
        cur = ctx.mult(ctx.pow(row, -q), cur)
        f = first_nonzero(cur)
        gamma.append(q)
    if f:
        return None
    return gamma


def _power_product(ctx, rows, exponents):
    """g_1^{e_1} ... g_s^{e_s} for the rows g_i and the exponents e_i, the
    element that a membership witness must give back."""
    out = ctx.identity
    for row, e in zip(rows, exponents):
        if e:
            out = ctx.mult(out, ctx.pow(row, e))
    return out


def _checked_scan(ctx, rows, h, pivots=None):
    """Exponents gamma with h = g_1^gamma_1 ... g_s^gamma_s over the rows,
    or None when h is not in their subgroup; raises InternalConsistencyError
    unless gamma multiplies back to h."""
    gamma = _membership_scan(ctx, rows, h, pivots)
    if gamma is not None and _power_product(ctx, rows, gamma) != h:
        raise InternalConsistencyError("membership witness does not give h")
    return gamma


def membership(pres: QuotientPresentation, form: FullFormMatrix,
               h: GroupElement) -> MembershipWitness | None:
    """Witness exponents over the full-form rows, or None for non-members.
    The rows must be vectors of the basis, as `full_form` returns them.
    The witness is re-checked: the rows to its powers multiply to h."""
    if h.presentation != pres:
        raise RejectedInput("element belongs to a different presentation")
    check_lengths(pres.basis, *form.rows)
    gamma = _checked_scan(pres, form.rows, h.coords, form.pivots)
    return None if gamma is None else MembershipWitness(tuple(gamma))


def express_in_original_generators(tracked: tuple | None,
                                   witness: MembershipWitness) -> ExpWord:
    """Word over the original generators evaluating to the witnessed
    element, from the derivations `full_form(..., track=True)` returns."""
    if tracked is None:
        raise RejectedInput("full form was computed without tracking")
    parts = [_expr_pow(ex, g) for ex, g in zip(tracked, witness.gamma) if g]
    return expand_expression(_expr_mul(tuple(parts)))


# ---------------------------------------------------------------------------
# Subgroup presentations.

def subgroup_presentation(pres: QuotientPresentation,
                          gens: CoordinateMatrix) -> NilpotentPresentation:
    """Consistent polycyclic presentation of the subgroup H that the matrix
    rows generate, on its full-form rows g_1, ..., g_s.  The relative order
    e_i of g_i is the ambient one at its pivot over its pivot entry, or
    infinite.  The relations are g_i^e_i = t, g_j g_i = g_i g_j t and
    g_j^-1 g_i = g_i g_j^-1 t for i < j, each tail t over later generators.
    `_checked_scan` multiplies each tail back and raises
    InternalConsistencyError unless it gives the element, so the relations
    hold in H.

    Then the presentation is consistent (Sims, *Computation with Finitely
    Presented Groups*, 1994, ch. 9).  `full_form_rows` checks conditions
    (i)-(v), so the rows are an induced polycyclic sequence of H in echelon
    form, and the presented group maps onto H.  Each of its elements
    collects to a normal form g_1^x_1 ... g_s^x_s with 0 <= x_i < e_i.  Let
    two normal forms first differ at x_i and cancel their common prefix: at
    g_i's pivot the rest is x_i times the pivot entry, modulo e_i times it
    where e_i is finite.  So distinct normal forms are distinct in H.
    """
    form, _ = full_form(pres, gens)
    rows, pivots = form.rows, form.pivots
    s = len(rows)

    def against_suffix(j: int, target) -> tuple[int, ...]:
        """Tail vector of an element of <g_{j+1}, ..., g_s>."""
        gamma = _checked_scan(pres, rows[j:], target, pivots[j:])
        if gamma is None:
            raise InternalConsistencyError(
                "relation tail escapes the suffix subgroup")
        return (0,) * j + tuple(gamma)

    orders: list[int | None] = []
    power_tails: dict[int, tuple[int, ...]] = {}
    for i, (row, piv) in enumerate(zip(rows, pivots), start=1):
        e = pres.torsion.get(piv)
        orders.append(None if e is None else e // row[piv - 1])
        if e is not None:
            power_tails[i] = against_suffix(i, pres.pow(row, orders[-1]))

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
