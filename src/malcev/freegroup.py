"""Exact arithmetic in the free nilpotent group of class c and rank r.

Elements are handled through two representations:

* exponent vectors with respect to a fixed basis of basic commutators
  (weight-ordered Hall basis), and
* truncated noncommutative power series over the generators, with every
  monomial of degree > c discarded.  Sending each generator to 1 + X_i embeds
  the group faithfully into the units of that ring (the classical Magnus
  embedding), which makes products, inverses and huge powers exact.

Coordinates are recovered from a series weight by weight: the degree-w part of
an element of the w-th lower central term is a Lie element, and the degree-w
parts of the weight-w basis letters span exactly those, with unique integer
coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .extgcd import RejectedInput


class SizeCapExceeded(ValueError):
    """Basis would contain more letters than the configured cap allows."""


class InternalConsistencyError(AssertionError):
    """A structural property of the basis failed; indicates a bug."""


DEFAULT_LETTER_CAP = 128  # covers every (c, r) with c <= 5, r <= 3

# An ExpWord is a sequence of (letter, exponent) pairs with 1-based letter
# indices and arbitrarily large integer exponents.
ExpWord = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BasicCommutator:
    weight: int
    left: int   # 1-based index of the left entry, 0 for generators
    right: int  # 1-based index of the right entry, 0 for generators


@dataclass(frozen=True)
class HallBasis:
    c: int
    r: int
    letters: tuple[BasicCommutator, ...]

    @property
    def m(self) -> int:
        return len(self.letters)

    def weight(self, i: int) -> int:
        """Weight of the 1-based letter i."""
        return self.letters[i - 1].weight


def _hall_letters(c: int, r: int, cap: int) -> list[BasicCommutator]:
    letters = [BasicCommutator(1, 0, 0) for _ in range(r)]
    for w in range(2, c + 1):
        fresh = []
        for u in range(1, len(letters) + 1):
            for v in range(1, u):
                if letters[u - 1].weight + letters[v - 1].weight != w:
                    continue
                # Hall condition: for u = [x, y] the right entry y must not
                # exceed v, so that every letter is built exactly once.
                if letters[u - 1].weight > 1 and letters[u - 1].right > v:
                    continue
                fresh.append(BasicCommutator(w, u, v))
                if len(letters) + len(fresh) > cap:
                    raise SizeCapExceeded(
                        f"basis for c={c}, r={r} has more than {cap} letters")
        fresh.sort(key=lambda bc: (bc.left, bc.right))
        letters.extend(fresh)
    return letters


@lru_cache(maxsize=None)
def build_hall_basis(c: int, r: int, cap: int = DEFAULT_LETTER_CAP) -> HallBasis:
    """Weight-ordered basis of basic commutators for class c and rank r."""
    if c < 1 or r < 1:
        raise RejectedInput("class and rank must be positive")
    return HallBasis(c, r, tuple(_hall_letters(c, r, cap)))


# ---------------------------------------------------------------------------
# Truncated series arithmetic.  A series is a dict mapping monomials (tuples
# of 0-based generator indices, length <= c) to nonzero integer coefficients.

Series = dict[tuple[int, ...], int]


def series_one() -> Series:
    return {(): 1}


def series_mult(c: int, f: Series, g: Series) -> Series:
    out: Series = {}
    for m1, c1 in f.items():
        room = c - len(m1)
        for m2, c2 in g.items():
            if len(m2) > room:
                continue
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


def _falling_binom(e: int, k: int) -> int:
    """binomial(e, k) for arbitrary integer e (integer-valued)."""
    num = 1
    for i in range(k):
        num *= e - i
    den = 1
    for i in range(2, k + 1):
        den *= i
    q, rem = divmod(num, den)
    assert rem == 0
    return q


def series_power(c: int, f: Series, e: int) -> Series:
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


# ---------------------------------------------------------------------------
# Per-basis caches: letter series and weight-by-weight coordinate solvers.

class _BasisData:
    def __init__(self, basis: HallBasis):
        self.basis = basis
        self._series_cache: dict[tuple[int, ...], Series] = {}
        c, r = basis.c, basis.r
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
        self.solvers: dict[int, tuple[list[int], list[tuple[int, ...]], list[list[Fraction]]]] = {}
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

    def coords_to_series(self, coords) -> Series:
        key = tuple(coords)
        cached = self._series_cache.get(key)
        if cached is not None:
            return cached
        c = self.basis.c
        out = series_one()
        for i, e in enumerate(key):
            if e:
                out = series_mult(c, out, series_power(c, self.letter_series[i], e))
        if len(self._series_cache) < (1 << 16):
            self._series_cache[key] = out
        return out

    def series_to_coords(self, s: Series) -> tuple[int, ...]:
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
                div = series_one()
                for i, a in zip(idxs, alphas):
                    if a:
                        div = series_mult(c, div,
                                          series_power(c, self.letter_series[i - 1], a))
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


_basis_data_cache: dict[HallBasis, _BasisData] = {}


def _data(basis: HallBasis) -> _BasisData:
    d = _basis_data_cache.get(basis)
    if d is None:
        d = _BasisData(basis)
        _basis_data_cache[basis] = d
    return d


# ---------------------------------------------------------------------------
# Public coordinate operations.

def eval_free(basis: HallBasis, word: ExpWord) -> tuple[int, ...]:
    """Coordinates of the element represented by a word with binary exponents."""
    data = _data(basis)
    c = basis.c
    s = series_one()
    for letter, e in word:
        if not 1 <= letter <= basis.m:
            raise RejectedInput(f"letter index {letter} out of range 1..{basis.m}")
        if e:
            s = series_mult(c, s, series_power(c, data.letter_series[letter - 1], e))
    return data.series_to_coords(s)


def coords_mult(basis: HallBasis, u, v) -> tuple[int, ...]:
    return _coords_mult_cached(basis, tuple(u), tuple(v))


@lru_cache(maxsize=1 << 16)
def _coords_mult_cached(basis: HallBasis, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    data = _data(basis)
    s = series_mult(basis.c, data.coords_to_series(u), data.coords_to_series(v))
    return data.series_to_coords(s)


def coords_pow(basis: HallBasis, u, e: int) -> tuple[int, ...]:
    data = _data(basis)
    s = data.coords_to_series(tuple(u))
    return data.series_to_coords(series_power(basis.c, s, e))


def coords_inverse(basis: HallBasis, u) -> tuple[int, ...]:
    return coords_pow(basis, u, -1)


def identity_coords(basis: HallBasis) -> tuple[int, ...]:
    return (0,) * basis.m


@dataclass(frozen=True)
class StructureRelations:
    """Normal-form tails of the two letter-exchange relations.

    For j > i (1-based): swapping a_j past a_i gives
        a_j a_i      = a_i a_j      * tail(alpha[(i, j)])
        a_j^-1 a_i   = a_i a_j^-1   * tail(beta[(i, j)])
    with each tail an exponent vector supported on letters > j.
    """
    alpha: dict[tuple[int, int], tuple[int, ...]]
    beta: dict[tuple[int, int], tuple[int, ...]]


@lru_cache(maxsize=None)
def structure_relations(basis: HallBasis) -> StructureRelations:
    alpha: dict[tuple[int, int], tuple[int, ...]] = {}
    beta: dict[tuple[int, int], tuple[int, ...]] = {}
    for j in range(2, basis.m + 1):
        for i in range(1, j):
            for sign, store in ((1, alpha), (-1, beta)):
                lhs = eval_free(basis, ((j, sign), (i, 1)))
                head = eval_free(basis, ((i, 1), (j, sign)))
                tail = coords_mult(basis, coords_inverse(basis, head), lhs)
                if any(tail[:j]):
                    raise InternalConsistencyError(
                        "exchange tail not supported on higher letters")
                store[(i, j)] = tail
    return StructureRelations(alpha=alpha, beta=beta)


def coords_to_word(coords) -> ExpWord:
    """Normal-form word of a coordinate vector."""
    return tuple((i + 1, e) for i, e in enumerate(coords) if e)
