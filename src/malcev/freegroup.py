"""Exact arithmetic in the free nilpotent group of class c and rank r.

Elements are exponent vectors (Mal'cev coordinates) with respect to a fixed,
weight-ordered Hall basis of basic commutators.  The coordinates of u·v are
fixed integer-valued polynomials in the coordinates of u and v (P. Hall), and
the basis owns them:

* `HallBasis.mult(u, v)` and `HallBasis.inverse(u)` are one call each of the
  polynomials of the coordinates of u·v and of u**-1;
* `HallBasis.pow(u, e)` returns u or the identity for e in {0, 1}, and
  e·u when `HallBasis.commuting(u)`: letters whose weights sum past the
  class commute, so such a power is a scaling, with no multiplication.
  Otherwise it is `inverse` for e = -1, and for any other e it
  interpolates in e from u**0 .. u**w, with w - 1 multiplications
  whatever |e|, where w is the weight of the basis's heaviest letter: c,
  or 1 at rank 1.  Its two halves are public, so a caller that powers one
  element often (a relator row that does not commute, in
  `presentations.reduce_coords`) keeps `power_differences` and pays only
  `power_from_differences` per power;
* `eval_free` folds `mult` over the letter powers of a word.

These trust their vectors' lengths.  Vectors from outside enter group
arithmetic only through `groups.element`, `subgroups.CoordinateMatrix` and
`presentations.make_quotient_presentation`, which check them first
(`check_lengths`); a free group is `presentations.free_presentation`.

The polynomials depend on the class only through that weight, so every
rank-1 basis, whatever its class, uses the class-1 tables.  The polynomials
for c <= 5, r <= 3 ship as generated modules in `malcev.tables`, one per
basis and kind, each imported on the first use of its kind on its basis:
a process that only multiplies never loads an inverse.  Any other basis
derives each kind once per process with `malcev.deepthought`, which runs
the Magnus-series engine of `malcev.series` over polynomial coefficients.
`build_hall_basis` returns one basis per (c, r), so the basis is the cache.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .extgcd import RejectedInput


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

    @cached_property
    def mult(self) -> Callable:
        """The product polynomials: `mult(u, v)` is the vector of u·v."""
        return _polynomials(self, "mult")

    @cached_property
    def inverse(self) -> Callable:
        """The inverse polynomials: `inverse(u)` is the vector of u**-1."""
        return _polynomials(self, "inverse")

    def commuting(self, u) -> bool:
        """True when every two letters of u's support commute by weight
        (`commute_by_weight`): u has at most one nonzero coordinate, or its
        two lightest nonzero letters, its first two since the basis is
        weight-ordered, commute.  Then u**e = e·u for every integer e."""
        first = None
        for i, x in enumerate(u):
            if x:
                if first is not None:
                    return commute_by_weight(self, first + 1, i + 1)
                first = i
        return True

    def pow(self, u, e: int) -> tuple[int, ...]:
        """u**e for any integer e; trusts the length of u."""
        if e == 0 or e == 1:
            return tuple(u) if e else (0,) * self.m
        if self.commuting(u):
            return tuple(e * x for x in u)
        if e == -1:
            return self.inverse(u)
        return power_from_differences(power_differences(self, u), e)


def commute_by_weight(ctx, i: int, j: int) -> bool:
    """True when any two elements whose first nonzero columns are the
    1-based i and j commute because [Γ_a, Γ_b] <= Γ_{a+b}: they lie in
    Γ_{weight(i)} and Γ_{weight(j)}, and those weights sum past `ctx.c`, a
    bound on the nilpotency class.  A basis, a quotient presentation and a
    product context (`subgroups.ProductContext`) each have `weight` and
    `c`."""
    return ctx.weight(i) + ctx.weight(j) > ctx.c


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
# The polynomials, the length check at the public entries, powers and words.

SHIPPED_MAX = (5, 3)  # tables ship for c <= 5, r <= 3; at rank 1 only c = 1


def table_module(kind: str, c: int, r: int) -> str:
    """Name of the module in `malcev.tables` that holds the `mult` or the
    `inverse` polynomials of class c and rank r.  Each kind has its own
    module, so a process that never inverts never loads an inverse."""
    return f"c{c}r{r}" if kind == "mult" else f"c{c}r{r}_{kind}"


def _polynomials(basis: HallBasis, kind: str) -> Callable:
    """The shipped `mult` or `inverse` of the basis, else a derived one."""
    c, r = basis.top_weight, basis.r
    if c <= SHIPPED_MAX[0] and r <= SHIPPED_MAX[1]:
        module = importlib.import_module(
            f"{__package__}.tables.{table_module(kind, c, r)}")
        return getattr(module, kind)
    return importlib.import_module(
        f"{__package__}.deepthought").compile_table(basis, kind)


def check_lengths(basis: HallBasis, *vectors) -> None:
    """Raise RejectedInput unless every vector has one entry per letter."""
    m = basis.m
    for x in vectors:
        if len(x) != m:
            raise RejectedInput(
                f"coordinate vector has {len(x)} entries, the basis has {m} letters")


def eval_free(basis: HallBasis, word: ExpWord) -> tuple[int, ...]:
    """Coordinates of the element represented by a word with binary exponents."""
    mult = basis.mult
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


def power_differences(basis: HallBasis, u) -> tuple[tuple[int, ...], ...]:
    """Forward differences at 0, of orders 1 .. w, of u**0 .. u**w, where w
    is the basis's top weight.

    A coordinate of weight w of u**e is a polynomial of degree <= w in e, so
    these w vectors determine u**e for every integer e
    (`power_from_differences`).  Costs w - 1 multiplications.
    """
    mult = basis.mult
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


def coords_to_word(coords) -> ExpWord:
    """Normal-form word of a coordinate vector."""
    return tuple((i + 1, e) for i, e in enumerate(coords) if e)
