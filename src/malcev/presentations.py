"""Quotient presentations: nilpotent groups given as a free nilpotent group
modulo the subgroup spanned by a relator matrix in full form.

A full-form matrix is the canonical (row-echelon, maximally reduced, closed)
coordinate matrix of a subgroup; the pivot columns of the relator matrix are
exactly the torsion letters of the quotient and the pivot entries their
relative orders.  A relator matrix is valid, and the quotient presentation
consistent, exactly when the matrix is the full form of a normal subgroup.
One sift closed under conjugation by the generators builds the normal
closure of relators.  Whether a matrix already is such a full form is
decided without building it: each element that sift would close over must
scan into the rows.  Both take time polynomial in the entries' bit size.

`NilpotentPresentation` is the subgroup presentation that
`subgroups.subgroup_presentation` returns after multiplying each relation back.

Full-form matrices and quotient presentations compare and hash by value, so
the new object each `free_presentation(c, r)` call builds equals the last.
No field is assigned after construction: these objects are treated as
immutable, which nothing enforces.
"""

from __future__ import annotations

from functools import cached_property

from .extgcd import InternalConsistencyError, RejectedInput
from .freegroup import (ExpWord, HallBasis, build_hall_basis, check_lengths,
                        commute_by_weight, eval_free)


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


class FullFormMatrix:
    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self.rows = rows

    def __eq__(self, other):
        if other.__class__ is not FullFormMatrix:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(first_nonzero(r) for r in self.rows)


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


class QuotientPresentation:
    """The group context: multiplication and powering of normal forms.

    A componentwise direct product (`subgroups.ProductContext`) offers the
    same members: `m`, `torsion`, `identity`, `mult`, `pow`, and the class
    `c` with the column weights `weights` that `freegroup.commute_by_weight`
    reads.
    """

    def __init__(self, basis: HallBasis, relators: FullFormMatrix):
        self.basis = basis
        self.relators = relators

    def __eq__(self, other):
        if other.__class__ is not QuotientPresentation:
            return NotImplemented
        return (self.basis, self.relators) == (other.basis, other.relators)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """Once: each `_tower` and `_layer` lookup hashes the presentation."""
        return hash((self.basis, self.relators))

    @property
    def m(self) -> int:
        return self.basis.m

    @cached_property
    def c(self) -> int:
        """The class the weight test reads: the basis's top weight."""
        return self.basis.top_weight

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """The basis's weights: each 1-based column's at its index."""
        return self.basis.weights

    @cached_property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.m

    def mult(self, u, v) -> tuple[int, ...]:
        return reduce_coords(self, self.basis.mult(u, v))

    def pow(self, u, e: int) -> tuple[int, ...]:
        return reduce_coords(self, self.basis.pow(u, e))

    @cached_property
    def torsion(self) -> dict[int, int]:
        """Torsion columns of the quotient with their relative orders."""
        return {p: row[p - 1]
                for p, row in zip(self.relators.pivots, self.relators.rows)}

    @cached_property
    def folds(self) -> tuple[tuple[int, int, tuple[tuple[int, int], ...],
                                    tuple[int, ...] | None], ...]:
        """(column, relative order, support, row) for each torsion column,
        in increasing column order.  The support is the relator row's
        nonzero entries as (0-based index, value) pairs, its pivot first.
        The row is the relator row itself, which `reduce_coords` powers, or
        None for a row whose letters commute by weight
        (`HallBasis.commuting`), which it folds by subtracting its
        support."""
        basis = self.basis
        return tuple(sorted(
            (p, row[p - 1], tuple((j, v) for j, v in enumerate(row) if v),
             None if basis.commuting(row) else row)
            for p, row in zip(self.relators.pivots, self.relators.rows)))

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
    through the relator row of that column: the suffix becomes
    row**-q · suffix.  A row that does not commute by weight folds with one
    power of the row, `HallBasis.pow` as every power in the library, and
    one multiplication.  A row a_i**e · t that commutes folds
    with none: every letter of t commutes with a_i and with every suffix
    letter, which weighs at least as much as a_i, so the fold subtracts
    q times the row's nonzero entries from the suffix.  A column already in
    [0, e) is left as it is, and a vector with every torsion column in
    range comes back as it is, a tuple not copied.
    """
    y = coords
    for col, e, support, row in pres.folds:
        if 0 <= y[col - 1] < e:
            continue
        if y is coords:  # the first fold that fires copies
            y = list(coords)
        q, rem = divmod(y[col - 1], e)
        if row is None:
            if support[0][0] != col - 1:
                raise InternalConsistencyError(
                    f"torsion fold of column {col} would leave the suffix")
            for j, v in support:
                y[j] -= q * v
            if y[col - 1] != rem:
                raise InternalConsistencyError(
                    f"torsion fold of column {col} left a wrong remainder")
            continue
        suffix = tuple([0] * (col - 1) + y[col - 1:])
        folded = pres.basis.mult(pres.basis.pow(row, -q), suffix)
        if any(folded[:col - 1]) or folded[col - 1] != rem:
            raise InternalConsistencyError(
                f"torsion fold of column {col} left the suffix")
        y[col - 1:] = folded[col - 1:]
    return tuple(y)


def free_presentation(c: int, r: int) -> QuotientPresentation:
    return QuotientPresentation(build_hall_basis(c, r), FullFormMatrix(()))


def _normal_closure(basis: HallBasis, rows) -> tuple[tuple[int, ...], ...]:
    """Full form of the normal closure of the rows in the free nilpotent
    group: one sift closed under conjugation by the generators."""
    from .subgroups import full_form_rows
    units = [tuple(int(j == i) for j in range(basis.m))
             for i in range(basis.r)]
    free = free_presentation(basis.c, basis.r)
    return full_form_rows(free, rows, conjugators=units)[0]


def _check_normal_full_form(basis: HallBasis, rows) -> None:
    """Raise FullFormViolation unless the rows are the full form of a
    normal subgroup: conditions (i)-(iv) by name, then (vi) unless each
    element the normal-closure sift would close over, h_i^-1 h_j h_i for
    rows i < j and x^-1 h x for each row h and generator x, less what
    commutes by weight, scans into the rows (`subgroups._membership_scan`).

    That is the sift's verdict without building the closure.  If all scan,
    then from the last row up h_i normalizes <h_{i+1}, ...> by the maximal
    condition, so the products h_1^e_1 ... h_s^e_s are the subgroup, the
    echelon rows are its full form, and the generators normalize it.
    Conversely every element of a normal subgroup scans into its full
    form.  The first element that does not scan ends the check."""
    check_echelon_conditions(rows)  # ambient group is free: no condition (v)
    from .subgroups import _membership_scan
    pivots = [first_nonzero(h) for h in rows]
    hs = list(zip(pivots, rows))
    gens = [(k + 1, tuple(int(j == k) for j in range(basis.m)))
            for k in range(basis.r)]
    # Each generator conjugates every row, and row i the rows after it.
    # The group is free, so the basis is the context: nothing folds.
    for i, (p, x) in enumerate(gens + hs):
        targets = [h for q, h in hs[max(0, i - len(gens) + 1):]
                   if not commute_by_weight(basis, p, q)]
        x_inv = basis.pow(x, -1) if targets else None
        for h in targets:
            if _membership_scan(basis, rows, basis.mult(
                    basis.mult(x_inv, h), x), pivots) is None:
                raise FullFormViolation(
                    "vi", "the rows are not the full form of a normal subgroup")


def make_quotient_presentation(basis: HallBasis, rows) -> QuotientPresentation:
    """Wrap a full-form relator matrix; validates, never reduces."""
    rows = tuple(tuple(r) for r in rows)
    check_lengths(basis, *rows)
    _check_normal_full_form(basis, rows)
    return QuotientPresentation(basis, FullFormMatrix(rows))


# ---------------------------------------------------------------------------
# Consistency.

def consistency_check(pres: QuotientPresentation) -> bool:
    """True iff the relator rows are the full form of a normal subgroup, as
    `make_quotient_presentation` checks.  For a matrix in full form that is
    when normal forms define an associative multiplication and every relator
    row collapses to the identity.  A matrix outside full form, such as one
    with a negative pivot, is never consistent, even where collection
    accepts its rewriting system with another transversal."""
    try:
        _check_normal_full_form(pres.basis, pres.relators.rows)
    except RejectedInput:
        return False
    return True


# ---------------------------------------------------------------------------
# Building quotient presentations.

def from_finite_presentation(basis: HallBasis, relators: list[ExpWord]) -> QuotientPresentation:
    """Quotient presentation of the group presented by relator words over the
    group generators (weight-1 letters): the full form of the normal closure
    of the relators.  Its sift stops only where `make_quotient_presentation`
    accepts, so the rows are wrapped without a second sift."""
    for w in relators:
        for letter, _ in w:
            if not 1 <= letter <= basis.r:
                raise RejectedInput(
                    "relators must use weight-1 letters a1..a%d" % basis.r)
    rows = _normal_closure(basis, [eval_free(basis, w) for w in relators])
    return QuotientPresentation(basis, FullFormMatrix(rows))


# ---------------------------------------------------------------------------
# Output presentations for subgroups (polycyclic-style, not quotient form).

class NilpotentPresentation:
    """Consistent nilpotent presentation: generators g_1..g_s with relative
    orders and relation tails, every tail supported on strictly larger
    generator indices."""
    def __init__(self, s: int, orders: tuple[int | None, ...],
                 power_tails: dict[int, tuple[int, ...]],
                 alpha: dict[tuple[int, int], tuple[int, ...]],
                 beta: dict[tuple[int, int], tuple[int, ...]]):
        self.s = s
        self.orders = orders              # None = infinite
        self.power_tails = power_tails    # g_i^{e_i} = tail
        self.alpha = alpha                # g_j g_i = g_i g_j tail
        self.beta = beta                  # g_j^-1 g_i = g_i g_j^-1 tail

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
