"""Quotient presentations: nilpotent groups given as a free nilpotent group
modulo the subgroup spanned by a relator matrix in full form.

A full-form matrix is the canonical (row-echelon, maximally reduced, closed)
coordinate matrix of a subgroup; the pivot columns of the relator matrix are
exactly the torsion letters of the quotient and the pivot entries their
relative orders.  A relator matrix is valid, and the quotient presentation
consistent, exactly when the matrix is the full form of a normal subgroup;
the full-form sift decides that, in time polynomial in the bit size of the
entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .collect import collector_for_nilpotent
from .extgcd import InternalConsistencyError, RejectedInput
from .freegroup import (ExpWord, HallBasis, build_hall_basis, coords_inverse,
                        coords_mult, coords_pow, coords_to_word, eval_free,
                        power_differences, power_from_differences)


class FullFormViolation(RejectedInput):
    def __init__(self, condition: str, detail: str):
        super().__init__(f"full-form condition ({condition}) violated: {detail}")
        self.condition = condition


def first_nonzero(row) -> int:
    """1-based column of the pivot, or 0 for a zero row."""
    for j, v in enumerate(row):
        if v:
            return j + 1
    return 0


def _membership_scan(ctx, rows, h):
    """Exponents gamma with h = g_1^{gamma_1} ... g_s^{gamma_s}, or None."""
    cur = tuple(h)
    gamma = []
    for row in rows:
        piv = first_nonzero(row)
        f = first_nonzero(cur)
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
        gamma.append(q)
    if first_nonzero(cur):
        return None
    return gamma


@dataclass(frozen=True)
class FullFormMatrix:
    rows: tuple[tuple[int, ...], ...]

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(first_nonzero(r) for r in self.rows)

    def pivot_value(self, i: int) -> int:
        return self.rows[i][self.pivots[i] - 1]

    @property
    def s(self) -> int:
        return len(self.rows)


def check_echelon_conditions(rows, torsion: dict[int, int] | None = None) -> None:
    """Raise FullFormViolation unless conditions (i)-(v) hold.

    `torsion` maps ambient torsion columns to their relative orders and is
    used for the divisibility condition (v); pass None for a torsion-free
    ambient group.
    """
    pivots = [first_nonzero(r) for r in rows]
    for i, p in enumerate(pivots):
        if p == 0:
            raise FullFormViolation("i", f"row {i + 1} is zero")
    for i in range(1, len(rows)):
        if pivots[i - 1] >= pivots[i]:
            raise FullFormViolation(
                "ii", f"pivots not strictly increasing at row {i + 1}")
    for i, r in enumerate(rows):
        if r[pivots[i] - 1] <= 0:
            raise FullFormViolation("iii", f"pivot of row {i + 1} not positive")
    for i in range(len(rows)):
        piv = rows[i][pivots[i] - 1]
        for k in range(i):
            v = rows[k][pivots[i] - 1]
            if not 0 <= v < piv:
                raise FullFormViolation(
                    "iv", f"entry ({k + 1},{pivots[i]}) not reduced modulo {piv}")
    if torsion:
        for i, r in enumerate(rows):
            e = torsion.get(pivots[i])
            if e is not None and e % r[pivots[i] - 1]:
                raise FullFormViolation(
                    "v", f"pivot of row {i + 1} does not divide e_{pivots[i]} = {e}")


@dataclass(frozen=True)
class QuotientPresentation:
    """The group context: multiplication and powering of normal forms.

    A componentwise direct product (`subgroups.ProductContext`) offers the
    same members: `m`, `torsion`, `identity`, `mult` and `pow`.
    """
    basis: HallBasis
    relators: FullFormMatrix

    @property
    def m(self) -> int:
        return self.basis.m

    @cached_property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.m

    def mult(self, u, v) -> tuple[int, ...]:
        return reduce_coords(self, coords_mult(self.basis, u, v))

    def pow(self, u, e: int) -> tuple[int, ...]:
        return reduce_coords(self, coords_pow(self.basis, u, e))

    @cached_property
    def torsion(self) -> dict[int, int]:
        """Torsion columns of the quotient with their relative orders."""
        return {p: self.relators.pivot_value(i)
                for i, p in enumerate(self.relators.pivots)}

    @cached_property
    def torsion_rows(self) -> dict[int, tuple[int, ...]]:
        return {p: self.relators.rows[i]
                for i, p in enumerate(self.relators.pivots)}

    @cached_property
    def folds(self) -> tuple[tuple[int, int, tuple[tuple[int, ...], ...]], ...]:
        """(column, relative order, power differences of the relator row)
        for each torsion column, in increasing column order."""
        return tuple(sorted(
            (p, self.relators.pivot_value(i),
             power_differences(self.basis, self.relators.rows[i]))
            for i, p in enumerate(self.relators.pivots)))

    def describe(self) -> str:
        c, r = self.basis.c, self.basis.r
        lines = [f"group c={c} r={r}"]
        for row in self.relators.rows:
            lines.append("row " + " ".join(str(v) for v in row))
        return "\n".join(lines)


def reduce_coords(pres: QuotientPresentation, coords) -> tuple[int, ...]:
    """Fold torsion columns left to right until every one is reduced.

    Within the subgroup generated by the letters from column i on, the i-th
    coordinate is additive, so excess pivot powers fold into the suffix
    through the relator row of that column.  The relator's power comes from
    the differences the presentation stores (`QuotientPresentation.folds`),
    so each fold is one multiplication.
    """
    folds = pres.folds
    if not folds:
        return tuple(coords)
    basis = pres.basis
    y = list(coords)
    for col, e, diffs in folds:
        q, rem = divmod(y[col - 1], e)
        if q:
            suffix = tuple([0] * (col - 1) + y[col - 1:])
            folded = coords_mult(basis, power_from_differences(diffs, -q),
                                 suffix)
            if any(folded[:col - 1]) or folded[col - 1] != rem:
                raise InternalConsistencyError(
                    f"torsion fold of column {col} left the suffix")
            y[col - 1:] = folded[col - 1:]
    return tuple(y)


def free_presentation(c: int, r: int) -> QuotientPresentation:
    return QuotientPresentation(build_hall_basis(c, r), FullFormMatrix(()))


def make_quotient_presentation(basis: HallBasis, rows) -> QuotientPresentation:
    """Wrap a full-form relator matrix; validates, never reduces.

    Conditions (i)-(iv) are checked by name.  The rows are the full form of
    a normal subgroup N exactly when sifting them together with x^-1 h x,
    for each row h and each generator x, gives them back: the full form is
    unique, and one direction of conjugation is enough by the maximal
    condition on subgroups.  Otherwise (vi) is named.
    """
    from .subgroups import full_form_free
    rows = tuple(tuple(r) for r in rows)
    for r in rows:
        if len(r) != basis.m:
            raise RejectedInput(f"relator rows must have length {basis.m}")
    check_echelon_conditions(rows)  # ambient group is free: no condition (v)
    conjugates = []
    for i in range(basis.r):
        x = tuple(int(j == i) for j in range(basis.m))
        x_inv = tuple(-v for v in x)  # a_i^-1 is -e_i: no coords_pow
        conjugates += [coords_mult(basis, coords_mult(basis, x_inv, h), x)
                       for h in rows]
    if rows and full_form_free(basis, rows + tuple(conjugates)) != rows:
        raise FullFormViolation(
            "vi", "the rows are not the full form of a normal subgroup")
    return QuotientPresentation(basis, FullFormMatrix(rows))


# ---------------------------------------------------------------------------
# Consistency.

def consistency_check(pres: QuotientPresentation) -> bool:
    """True iff the relator rows are the full form of a normal subgroup, as
    `make_quotient_presentation` checks.  For a matrix in full form that is
    when normal forms define an associative multiplication and every relator
    row collapses to the identity.  A matrix outside full form, such as one
    with a negative pivot, is never consistent, even where the collector
    accepts its rewriting system with another transversal."""
    try:
        make_quotient_presentation(pres.basis, pres.relators.rows)
    except RejectedInput:
        return False
    return True


def _associative(col, s: int) -> bool:
    """(g_i g_j) g_k == g_i (g_j g_k) under the collector for every triple.

    Each pair product g_i g_j is collected once and reused, as a word, on
    both sides: s**2 pair collections instead of s**3.
    """
    gens = range(1, s + 1)
    pairs = {(i, j): coords_to_word(col.collect(((i, 1), (j, 1))))
             for i in gens for j in gens}
    return all(col.collect(pairs[i, j] + ((k, 1),))
               == col.collect(((i, 1),) + pairs[j, k])
               for i in gens for j in gens for k in gens)


# ---------------------------------------------------------------------------
# Building quotient presentations.

def from_finite_presentation(basis: HallBasis, relators: list[ExpWord]) -> QuotientPresentation:
    """Quotient presentation of the group presented by relator words over the
    group generators (weight-1 letters)."""
    from .subgroups import full_form_free
    for w in relators:
        for letter, _ in w:
            if not 1 <= letter <= basis.r:
                raise RejectedInput(
                    "relators must use weight-1 letters a1..a%d" % basis.r)
    gens = []
    level = [eval_free(basis, w) for w in relators]
    gens.extend(level)
    conjugators = []
    for i in range(1, basis.r + 1):
        for s in (1, -1):
            x = eval_free(basis, ((i, s),))
            conjugators.append((x, coords_inverse(basis, x)))
    for _ in range(basis.c - 1):
        nxt = []
        for u in level:
            u_inv = coords_inverse(basis, u)
            for x, x_inv in conjugators:
                comm = coords_mult(basis, coords_mult(basis, u_inv, x_inv),
                                   coords_mult(basis, u, x))
                nxt.append(comm)
        gens.extend(nxt)
        level = nxt
    rows = full_form_free(basis, gens)
    return make_quotient_presentation(basis, rows)


def embed_letter_map(small: HallBasis, big: HallBasis, offset: int) -> list[int]:
    """1-based letter indices in `big` of the images of the letters of `small`
    under the embedding sending generator i to generator offset + i."""
    by_shape = {(bc.weight, bc.left, bc.right): k + 1
                for k, bc in enumerate(big.letters)}
    out: list[int] = []
    for k, bc in enumerate(small.letters):
        if bc.weight == 1:
            out.append(offset + k + 1)
        else:
            left = out[bc.left - 1]
            right = out[bc.right - 1]
            img = by_shape.get((bc.weight, left, right))
            if img is None:
                raise InternalConsistencyError(
                    "embedded commutator is not a basic commutator of the"
                    " larger basis")
            out.append(img)
    return out


def scatter_coords(coords, letter_map: list[int], big_m: int) -> tuple[int, ...]:
    out = [0] * big_m
    for v, target in zip(coords, letter_map):
        out[target - 1] = v
    return tuple(out)


def direct_product(p_h: QuotientPresentation, p_g: QuotientPresentation) -> QuotientPresentation:
    """Presentation of H x G inside the free nilpotent group of doubled rank:
    H occupies generators 1..r, G occupies r+1..2r, and every basis letter in
    neither image is killed by a pivot-1 relator row."""
    from .subgroups import full_form_free
    bh, bg = p_h.basis, p_g.basis
    if (bh.c, bh.r) != (bg.c, bg.r):
        raise RejectedInput("factors must share class and rank")
    c, r = bh.c, bh.r
    big = build_hall_basis(c, 2 * r)
    map_h = embed_letter_map(bh, big, 0)
    map_g = embed_letter_map(bg, big, r)
    used = set(map_h) | set(map_g)
    rows = [scatter_coords(row, map_h, big.m) for row in p_h.relators.rows]
    rows += [scatter_coords(row, map_g, big.m) for row in p_g.relators.rows]
    for k in range(1, big.m + 1):
        if k not in used:
            unit = [0] * big.m
            unit[k - 1] = 1
            rows.append(tuple(unit))
    return make_quotient_presentation(big, full_form_free(big, rows))


# ---------------------------------------------------------------------------
# Output presentations for subgroups (polycyclic-style, not quotient form).

@dataclass(frozen=True)
class NilpotentPresentation:
    """Consistent nilpotent presentation: generators g_1..g_s with relative
    orders and relation tails, every tail supported on strictly larger
    generator indices."""

    s: int
    orders: tuple[int | None, ...]                       # None = infinite
    power_tails: dict[int, tuple[int, ...]]              # g_i^{e_i} = tail
    alpha: dict[tuple[int, int], tuple[int, ...]]        # g_j g_i = g_i g_j tail
    beta: dict[tuple[int, int], tuple[int, ...]]         # g_j^-1 g_i = g_i g_j^-1 tail

    def describe(self) -> str:
        lines = [f"generators {self.s}"]
        lines.append("orders " + " ".join(
            "inf" if e is None else str(e) for e in self.orders))
        for i in sorted(self.power_tails):
            lines.append(f"power {i} " + " ".join(map(str, self.power_tails[i])))
        for (i, j) in sorted(self.alpha):
            lines.append(f"conj {i} {j} " + " ".join(map(str, self.alpha[(i, j)])))
        for (i, j) in sorted(self.beta):
            lines.append(f"conjinv {i} {j} " + " ".join(map(str, self.beta[(i, j)])))
        return "\n".join(lines)


def nilpotent_presentation_consistent(npres: NilpotentPresentation) -> bool:
    """Consistency of a subgroup presentation, decided by collection: every
    power relation holds and collection is associative on the generators.

    The answer is True or False only when collection decided it: a
    collection that exceeds `collect.DEFAULT_STEP_CAP` raises
    `CollectionLimit`, which propagates rather than reading as False."""
    col = collector_for_nilpotent(npres)
    zero = (0,) * npres.s
    for i, e in enumerate(npres.orders, start=1):
        if e is None:
            continue
        tail = npres.power_tails.get(i, zero)
        lhs = col.collect(((i, e),))
        if lhs != col.collect(coords_to_word(tail)):
            return False
    return _associative(col, npres.s)
