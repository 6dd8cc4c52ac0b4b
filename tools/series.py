"""Truncated Magnus series of the free nilpotent group of class c and rank r.

Sending each generator to 1 + X_i embeds the free nilpotent group faithfully
into the units of the ring of noncommutative power series with every monomial
of degree > c discarded (the classical Magnus embedding).  Coordinates are
recovered from a series weight by weight: the degree-w part of an element of
the w-th lower central term is a Lie element, and the degree-w parts of the
weight-w basis letters span exactly those, with unique integer coefficients.
Those coefficients are read off at a few pivot monomials through one
precomputed inverse per weight, and peeled off by multiplying by the series
of their inverse word; an inverse is `series_power` to the -1.

The arithmetic here is generic over the coefficient ring: the exponents and
coordinates may be integers or any exact type with `+`, `-`, `*`, `divmod`
by an integer and truth testing.  `deepthought` runs it over polynomials to
derive the multiplication polynomials only; the inverse and power
polynomials follow from those.  The tests run it as an independent oracle,
over integers and over polynomials.  It is a tool, not part of the library,
which only imports the tables that `tools/gen_tables.py` writes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from malcev.extgcd import InternalConsistencyError
from malcev.freegroup import ExpWord, HallBasis

# A series maps monomials (tuples of 0-based generator indices, length <= c)
# to nonzero coefficients.
Series = dict


def series_one() -> Series:
    return {(): 1}


def series_mult(c: int, f: Series, g: Series) -> Series:
    out: Series = {}
    g_items = sorted(g.items(), key=lambda item: len(item[0]))
    for m1, c1 in f.items():
        room = c - len(m1)
        for m2, c2 in g_items:
            if len(m2) > room:
                break
            key = m1 + m2
            v = out.get(key, 0) + c1 * c2
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def _falling_binom(e, k: int):
    """binomial(e, k), integer-valued for every integer e."""
    num = 1
    for i in range(k):
        num *= e - i
    q, rem = divmod(num, math.factorial(k))
    if rem:
        raise InternalConsistencyError(f"binomial({e}, {k}) is not an integer")
    return q


def series_power(c: int, f: Series, e) -> Series:
    """f**e for a series with constant term 1, exact for any integer e, or
    for an exponent that is a polynomial taking integer values."""
    if f.get((), 0) != 1:
        raise InternalConsistencyError("only series with constant term 1 power")
    u = {k: v for k, v in f.items() if k}
    out: Series = {}
    term = series_one()  # u**k
    k = 0
    while term:
        b = _falling_binom(e, k)
        if b:
            for mon, v in term.items():
                w = out.get(mon, 0) + b * v
                if w:
                    out[mon] = w
                elif mon in out:
                    del out[mon]
        k += 1
        if k > c:
            break
        term = series_mult(c, term, u)
    return out


def _weight_solver(block: list[list[int]]
                   ) -> tuple[list[int], list[tuple[list[int], int]]]:
    """Pivot monomials and inverse rows of one weight block.

    `block` is M^T, where M is the weight-w block of monomials by letters:
    one row per letter, its coefficients on the degree-w monomials.  One
    Gauss-Jordan pass over [M^T | I] takes M^T to its reduced echelon form
    R and I to the E with E M^T = R.  The pivot columns P of R, the leftmost
    independent monomials, make R[:, P] the identity, so M[P] E^T = I: the
    rows of M[P]^-1 are the columns of E, returned as (integer row,
    denominator).  The coordinates are unique, so any valid P gives them.
    """
    n = len(block)
    aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(block)]
    pivots: list[int] = []
    for col in range(len(block[0])):
        k = len(pivots)
        piv = next((i for i in range(k, n) if aug[i][col]), None)
        if piv is None:
            continue
        aug[k], aug[piv] = aug[piv], aug[k]
        pv = Fraction(aug[k][col])  # so that int entries divide exactly
        aug[k] = [v / pv for v in aug[k]]
        for i in range(n):
            f = aug[i][col]
            if i != k and f:
                # M is sparse: skip the zeros of the pivot row
                aug[i] = [a - f * b if b else a
                          for a, b in zip(aug[i], aug[k])]
        pivots.append(col)
    if len(pivots) < n:
        raise InternalConsistencyError("weight block is rank deficient")
    inverse = []
    for frow in zip(*(row[-n:] for row in aug)):
        den = math.lcm(*(v.denominator for v in frow))
        inverse.append(([int(v * den) for v in frow], den))
    return pivots, inverse


class SeriesBasis:
    """Letter series and weight-by-weight coordinate solvers of one basis."""

    def __init__(self, basis: HallBasis):
        self.basis = basis
        c = basis.c
        self.letter_series: list[Series] = []
        for bc in basis.letters:
            if bc.weight == 1:
                i = len(self.letter_series)
                self.letter_series.append({(): 1, (i,): 1})
            else:
                a = self.letter_series[bc.left - 1]
                b = self.letter_series[bc.right - 1]
                comm = series_mult(c, series_mult(c, series_power(c, a, -1),
                                                  series_power(c, b, -1)),
                                   series_mult(c, a, b))
                self.letter_series.append(comm)
        # For each weight w: the letters of that weight, pivot monomials P
        # and the rows of M[P]^-1, used to read coordinates off the degree-w
        # part of a series.
        self.solvers: dict[int, tuple[list[int], list[tuple[int, ...]], list[tuple[list[int], int]]]] = {}
        for w in range(1, c + 1):
            idxs = [i + 1 for i in range(basis.m) if basis.weights[i + 1] == w]
            if not idxs:
                continue
            cols = [{mon: v for mon, v in self.letter_series[i - 1].items()
                     if len(mon) == w} for i in idxs]
            mons = sorted(set().union(*cols))
            pivots, inverse = _weight_solver(
                [[col.get(mon, 0) for mon in mons] for col in cols])
            self.solvers[w] = (idxs, [mons[p] for p in pivots], inverse)

    def word_series(self, word: ExpWord) -> Series:
        """Series of a word given as (1-based letter, exponent) pairs."""
        c = self.basis.c
        out = series_one()
        for letter, e in word:
            if e:
                out = series_mult(c, out,
                                  series_power(c, self.letter_series[letter - 1], e))
        return out

    def series_to_coords(self, s: Series) -> tuple:
        c = self.basis.c
        coords = [0] * self.basis.m
        residual = s
        for w in range(1, c + 1):
            if w not in self.solvers:
                continue
            idxs, pivot_mons, inv = self.solvers[w]
            vec = [residual.get(mon, 0) for mon in pivot_mons]
            alphas = []
            for row, den in inv:
                num = sum(a * b for a, b in zip(row, vec))
                val, rem = divmod(num, den)
                if rem:
                    raise InternalConsistencyError(
                        f"non-integer coordinate at weight {w}")
                alphas.append(val)
            for i, a in zip(idxs, alphas):
                coords[i - 1] = a
            if any(alphas):
                # the inverse of the word prod x_i^alpha_i over the letters
                peel = self.word_series(tuple(
                    (i, -a) for i, a in reversed(list(zip(idxs, alphas)))))
                residual = series_mult(c, peel, residual)
            if any(v for mon, v in residual.items() if len(mon) == w):
                raise InternalConsistencyError(
                    f"degree-{w} terms not spanned by weight-{w} letters")
        if any(v for mon, v in residual.items() if mon):
            raise InternalConsistencyError("series is not a group element image")
        return tuple(coords)
