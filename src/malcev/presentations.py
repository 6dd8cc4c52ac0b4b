"""Quotient presentations: nilpotent groups given as a free nilpotent group
modulo the subgroup spanned by a relator matrix in full form.

A full-form matrix is the canonical (row-echelon, maximally reduced, closed)
coordinate matrix of a subgroup; the pivot columns of the relator matrix are
exactly the torsion letters of the quotient and the pivot entries their
relative orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .collect import (CollectionLimit, collector_for_nilpotent,
                      collector_for_quotient)
from .extgcd import InternalConsistencyError, RejectedInput
from .freegroup import (ExpWord, HallBasis, build_hall_basis, coords_inverse,
                        coords_mult, coords_pow, coords_to_word, eval_free)


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
    through the relator row of that column.
    """
    basis = pres.basis
    y = list(coords)
    for col in sorted(pres.torsion):
        e = pres.torsion[col]
        q, rem = divmod(y[col - 1], e)
        if q:
            relator = pres.torsion_rows[col]
            suffix = tuple([0] * (col - 1) + y[col - 1:])
            folded = coords_mult(basis, coords_pow(basis, relator, -q), suffix)
            if any(folded[:col - 1]) or folded[col - 1] != rem:
                raise InternalConsistencyError(
                    f"torsion fold of column {col} left the suffix")
            y[col - 1:] = folded[col - 1:]
    return tuple(y)


def free_presentation(c: int, r: int) -> QuotientPresentation:
    return QuotientPresentation(build_hall_basis(c, r), FullFormMatrix(()))


def make_quotient_presentation(basis: HallBasis, rows) -> QuotientPresentation:
    """Wrap a full-form relator matrix; validates, never reduces."""
    rows = tuple(tuple(r) for r in rows)
    for r in rows:
        if len(r) != basis.m:
            raise RejectedInput(f"relator rows must have length {basis.m}")
    check_echelon_conditions(rows)  # ambient group is free: no condition (v)
    _check_closure(basis, rows)
    return QuotientPresentation(basis, FullFormMatrix(rows))


def _check_closure(basis: HallBasis, rows) -> None:
    """Condition (vi) for a relator matrix over the free group, decided by the
    membership scan over the trailing rows."""
    free = QuotientPresentation(basis, FullFormMatrix(()))
    for k in range(len(rows)):
        hk = rows[k]
        hk_inv = free.pow(hk, -1)
        tail = rows[k + 1:]
        for j in range(k + 1, len(rows)):
            for left, right in ((hk_inv, hk), (hk, hk_inv)):
                conj = free.mult(free.mult(left, rows[j]), right)
                if _membership_scan(free, tail, conj) is None:
                    raise FullFormViolation(
                        "vi", f"conjugate of row {j + 1} by row {k + 1} escapes"
                          " the trailing rows")


# ---------------------------------------------------------------------------
# Consistency checking via an independent collection-based arithmetic.

def consistency_check(pres: QuotientPresentation) -> bool:
    """True iff normal forms define an associative multiplication and every
    relator row collapses to the identity.

    Uses the collection engine, which derives its arithmetic purely from the
    exchange relations and the relator rows (independent of the series
    carrier), so a bogus relator matrix shows up as a genuine failure.
    """
    try:
        col = collector_for_quotient(pres)
        m = pres.m
        zero = pres.identity
        for row in pres.relators.rows:
            if col.collect(coords_to_word(row)) != zero:
                return False
        for j in range(1, m + 1):
            conj_ok = all(
                col.collect(((j, -1),) + coords_to_word(row) + ((j, 1),)) == zero
                and col.collect(((j, 1),) + coords_to_word(row) + ((j, -1),)) == zero
                for row in pres.relators.rows)
            if not conj_ok:
                return False
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                jk = col.collect(((i, 1), (j, 1)))
                for k in range(1, m + 1):
                    left = col.collect(coords_to_word(jk) + ((k, 1),))
                    inner = col.collect(((j, 1), (k, 1)))
                    right = col.collect(((i, 1),) + coords_to_word(inner))
                    if left != right:
                        return False
    except CollectionLimit:
        return False
    return True


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
    conjugators = [eval_free(basis, ((i, s),))
                   for i in range(1, basis.r + 1) for s in (1, -1)]
    for _ in range(basis.c - 1):
        nxt = []
        for u in level:
            u_inv = coords_inverse(basis, u)
            for x in conjugators:
                x_inv = coords_inverse(basis, x)
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
                raise AssertionError(
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
    """Collection-based consistency test, same regime as consistency_check."""
    try:
        col = collector_for_nilpotent(npres)
        zero = (0,) * npres.s
        for i, e in enumerate(npres.orders, start=1):
            if e is None:
                continue
            tail = npres.power_tails.get(i, zero)
            lhs = col.collect(((i, e),))
            if lhs != col.collect(coords_to_word(tail)):
                return False
        for i in range(1, npres.s + 1):
            for j in range(1, npres.s + 1):
                jk = col.collect(((i, 1), (j, 1)))
                for k in range(1, npres.s + 1):
                    left = col.collect(coords_to_word(jk) + ((k, 1),))
                    inner = col.collect(((j, 1), (k, 1)))
                    right = col.collect(((i, 1),) + coords_to_word(inner))
                    if left != right:
                        return False
    except CollectionLimit:
        return False
    return True
