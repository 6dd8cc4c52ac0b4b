"""Exact arithmetic in the free nilpotent group of class c and rank r.

Elements are exponent vectors (Mal'cev coordinates) with respect to a fixed,
weight-ordered Hall basis of basic commutators.  The coordinates of u·v are
fixed integer-valued polynomials in the coordinates of u and v (P. Hall), and
every operation here evaluates them:

* `coords_mult` is one call of the basis's `mult(u, v)`;
* `coords_pow(u, e)` interpolates in e from u**0 .. u**w, with w - 1
  multiplications whatever |e| (none for e in {0, 1}), where w is the
  weight of the basis's heaviest letter: c, or 1 at rank 1.  Its two
  halves are public, so a caller that powers one element often (a relator
  row in `presentations.reduce_coords`) keeps `power_differences` and pays
  only `power_from_differences` per power.  `coords_inverse` is
  `coords_pow(u, -1)`;
* `eval_free` folds `mult` over the letter powers of a word.

The polynomials depend on the class only through that weight, so every
rank-1 basis, whatever its class, uses the class-1 table.  The polynomials
for c <= 5, r <= 3 ship as generated modules in `malcev.tables`, imported on
first use of their basis.  Any other basis derives them once per process
with `malcev.deepthought`, which runs the Magnus-series engine of
`malcev.series` over polynomial coefficients.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .extgcd import InternalConsistencyError, RejectedInput


class SizeCapExceeded(ValueError):
    """Basis would contain more letters than DEFAULT_LETTER_CAP allows."""


# Bases with more letters are refused.  A basis without shipped tables derives
# its multiplication polynomials on its first operation, and that cost grows
# quickly with the class: 0.6 s at (4, 4) with 90 letters, 5 s at (8, 2)
# with 71.
DEFAULT_LETTER_CAP = 128

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

    @property
    def top_weight(self) -> int:
        """Weight of the heaviest letter: c for r >= 2, but 1 for r = 1,
        whose group is Z at every class.  The multiplication polynomials
        depend on the class only through it."""
        return self.letters[-1].weight


def _hall_letters(c: int, r: int) -> list[BasicCommutator]:
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
                if len(letters) + len(fresh) > DEFAULT_LETTER_CAP:
                    raise SizeCapExceeded(
                        f"basis for c={c}, r={r} has more than"
                        f" {DEFAULT_LETTER_CAP} letters")
        fresh.sort(key=lambda bc: (bc.left, bc.right))
        letters.extend(fresh)
    return letters


@lru_cache(maxsize=None)
def build_hall_basis(c: int, r: int) -> HallBasis:
    """Weight-ordered basis of basic commutators for class c and rank r."""
    if c < 1 or r < 1:
        raise RejectedInput("class and rank must be positive")
    return HallBasis(c, r, tuple(_hall_letters(c, r)))


# ---------------------------------------------------------------------------
# Public coordinate operations.  Every one of them evaluates the basis's
# multiplication polynomials, loaded or derived on first use of the basis.

SHIPPED_MAX = (5, 3)  # tables ship for c <= 5, r <= 3; at rank 1 only c = 1
_MULT: dict[tuple[int, int], Callable] = {}


def _check_lengths(basis: HallBasis, vectors) -> None:
    m = basis.m
    for x in vectors:
        if len(x) != m:
            raise RejectedInput(
                f"coordinate vector has {len(x)} entries, the basis has {m} letters")


def _mult(basis: HallBasis, *vectors) -> Callable:
    """The basis's `mult(u, v)`, after checking the length of each vector."""
    _check_lengths(basis, vectors)
    key = (basis.top_weight, basis.r)
    fn = _MULT.get(key)
    if fn is None:
        c, r = key
        if c <= SHIPPED_MAX[0] and r <= SHIPPED_MAX[1]:
            fn = importlib.import_module(f"{__package__}.tables.c{c}r{r}").mult
        else:
            fn = importlib.import_module(
                f"{__package__}.deepthought").compile_mult(basis)
        _MULT[key] = fn
    return fn


def eval_free(basis: HallBasis, word: ExpWord) -> tuple[int, ...]:
    """Coordinates of the element represented by a word with binary exponents."""
    mult = _mult(basis)
    m = basis.m
    out = (0,) * m
    for letter, e in word:
        if not 1 <= letter <= m:
            raise RejectedInput(f"letter index {letter} out of range 1..{m}")
        if e:
            step = [0] * m
            step[letter - 1] = e
            out = mult(out, step)
    return out


def coords_mult(basis: HallBasis, u, v) -> tuple[int, ...]:
    return _mult(basis, u, v)(u, v)


def power_differences(basis: HallBasis, u) -> tuple[tuple[int, ...], ...]:
    """Forward differences at 0, of orders 1 .. w, of u**0 .. u**w, where w
    is the basis's top weight.

    A coordinate of weight w of u**e is a polynomial of degree <= w in e, so
    these w vectors determine u**e for every integer e
    (`power_from_differences`).  Costs w - 1 multiplications.
    """
    mult = _mult(basis, u)
    w = basis.top_weight
    powers = [(0,) * basis.m, tuple(u)]
    for _ in range(w - 1):
        powers.append(mult(powers[-1], u))
    diffs = []
    for _ in range(w):
        powers = [tuple(b - a for a, b in zip(p, q))
                  for p, q in zip(powers, powers[1:])]
        diffs.append(powers[0])
    return tuple(diffs)


def power_from_differences(diffs, e: int) -> tuple[int, ...]:
    """u**e as the Newton sum over d of binomial(e, d) * diffs[d - 1]."""
    out = [0] * len(diffs[0])
    binom = 1
    for d, diff in enumerate(diffs, start=1):
        # binomial(e, d) from binomial(e, d - 1); the division is exact for
        # every integer e, negative ones included.
        binom = binom * (e - d + 1) // d
        if not binom:  # 0 <= e < d: every later binomial is 0 as well
            break
        out = [o + binom * x for o, x in zip(out, diff)]
    return tuple(out)


def coords_pow(basis: HallBasis, u, e: int) -> tuple[int, ...]:
    """u**e for any integer e, by Newton interpolation from u**0 .. u**c."""
    if e == 0 or e == 1:
        _check_lengths(basis, (u,))
        return tuple(u) if e else (0,) * basis.m
    return power_from_differences(power_differences(basis, u), e)


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
