"""Truncated Magnus series of the free nilpotent group of class c and rank r.

Sending each generator to 1 + X_i embeds the free nilpotent group faithfully
into the units of the ring of noncommutative power series with every monomial
of degree > c discarded (the classical Magnus embedding).  Coordinates are
recovered from a series weight by weight: the degree-w part of an element of
the w-th lower central term is a Lie element, and the degree-w parts of the
weight-w basis letters span exactly those, with unique integer coefficients.

The arithmetic here is generic over the coefficient ring: the exponents and
coordinates may be integers or any exact type with `+`, `-`, `*`, `divmod`
by an integer and truth testing.  `deepthought` runs it over polynomials to
derive the multiplication polynomials that `freegroup` evaluates; the tests
run it over integers as an independent oracle.  `import malcev` does not load
this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .freegroup import ExpWord, HallBasis, InternalConsistencyError

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


def series_inverse(c: int, f: Series) -> Series:
    if f.get((), 0) != 1:
        raise InternalConsistencyError("only series with constant term 1 invert")
    n = {k: -v for k, v in f.items() if k}  # f = 1 + n, n nilpotent
    out = series_one()
    term = series_one()
    for _ in range(c):
        term = series_mult(c, term, n)
        if not term:
            break
        for k, v in term.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
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
    """f**e for a series with constant term 1, exact for any integer e."""
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
                comm = series_mult(c, series_mult(c, series_inverse(c, a),
                                                  series_inverse(c, b)),
                                   series_mult(c, a, b))
                self.letter_series.append(comm)
        # For each weight w: the letters of that weight, a choice of pivot
        # monomials and the inverse of the resulting square matrix, used to
        # read coordinates off the degree-w part of a series.
        self.solvers: dict[int, tuple[list[int], list[tuple[int, ...]], list[tuple[list[int], int]]]] = {}
        for w in range(1, c + 1):
            idxs = [i + 1 for i in range(basis.m) if basis.weight(i + 1) == w]
            if not idxs:
                continue
            cols = []
            monomials: dict[tuple[int, ...], int] = {}
            for i in idxs:
                col = {}
                for mon, v in self.letter_series[i - 1].items():
                    if len(mon) == w:
                        col[mon] = v
                        monomials.setdefault(mon, len(monomials))
                cols.append(col)
            mon_list = sorted(monomials)
            rows = [[Fraction(col.get(mon, 0)) for col in cols] for mon in mon_list]
            pivot_rows, inv = _invertible_square(rows)
            # Store each inverse row over the integers with its denominator.
            int_inv = []
            for frow in inv:
                den = 1
                for v in frow:
                    den = den * v.denominator // math.gcd(den, v.denominator)
                int_inv.append(([int(v * den) for v in frow], den))
            self.solvers[w] = (idxs, [mon_list[i] for i in pivot_rows], int_inv)

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
                div = self.word_series(tuple(zip(idxs, alphas)))
                residual = series_mult(c, series_inverse(c, div), residual)
            if any(v for mon, v in residual.items() if len(mon) == w):
                raise InternalConsistencyError(
                    f"degree-{w} terms not spanned by weight-{w} letters")
        if any(v for mon, v in residual.items() if mon):
            raise InternalConsistencyError("series is not a group element image")
        return tuple(coords)


def _invertible_square(rows: list[list[Fraction]]) -> tuple[list[int], list[list[Fraction]]]:
    """Select rows forming an invertible square matrix; return their indices
    and the inverse of that matrix."""
    ncols = len(rows[0])
    chosen: list[int] = []
    work: list[list[Fraction]] = []
    pivots: list[int] = []
    basis_rows: list[list[Fraction]] = []
    for ri, row in enumerate(rows):
        red = list(row)
        for wrow, pc in zip(work, pivots):
            factor = red[pc] / wrow[pc]
            if factor:
                red = [a - factor * b for a, b in zip(red, wrow)]
        if any(red):
            pivots.append(next(k for k, v in enumerate(red) if v))
            work.append(red)
            chosen.append(ri)
            basis_rows.append(list(row))
            if len(chosen) == ncols:
                break
    if len(chosen) != ncols:
        raise InternalConsistencyError("weight block is rank deficient")
    return chosen, _matrix_inverse(basis_rows)


def _matrix_inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]
