"""Exact arithmetic in the free nilpotent group of class c and rank r.

Elements are exponent vectors (Mal'cev coordinates) with respect to a fixed,
weight-ordered Hall basis of basic commutators.  The coordinates of u·v and
of u**e are fixed integer-valued polynomials in the coordinates of u and v
and in e (P. Hall), and the basis owns them:

* `HallBasis.mult(u, v)` is one call of the polynomials of the
  coordinates of u·v;
* `HallBasis.pow(u, e)` returns u or the identity for e in {0, 1}, and
  e·u when `HallBasis.commuting(u)`: letters whose weights sum past the
  class commute, so such a power is a scaling, with no multiplication.
  Otherwise it is one call of the power polynomials, whatever |e|, the
  inverse (e = -1) included: the sum over j of C(e, j) times the j-th
  difference of u^0, u^1, ..., with each coordinate's monomials grouped
  by their combination of the binomials C(e, j), which are computed once
  per call.
  It is the library's one power: a torsion fold by a relator row that
  does not commute (`presentations.reduce_coords`) calls it too;
* `eval_free` builds the product of the letter powers of a word from
  the left: a power that commutes by weight with the product's tail after
  its letter adds its exponent to that coordinate, and any other power is
  one call of `mult`.  So a word whose powers all commute, such as every
  normal-form word (`coords_to_word`), never reads `mult`.

These trust their vectors' lengths.  Vectors from outside enter group
arithmetic only through `groups.element`, `subgroups.CoordinateMatrix` and
`presentations.make_quotient_presentation`, which check them first
(`check_lengths`); a free group is `presentations.free_presentation`.

A basis of top weight 1 (class 1, or rank 1 at any class) is abelian:
its product is the coordinatewise sum and its power the multiple, built
in (`_polynomials`).  Every other basis's polynomials ship as generated
modules in `malcev.tables`, one per basis and kind, each loaded from its
file, not imported, on the first use of its kind on its basis: a process
that only multiplies never loads a power, and one that evaluates only
words whose letter powers commute, as a cold `nf` of a normal-form word
does, never loads a product.  A product table writes each coordinate in
the binomial basis, as an integer combination of products of binomials
C(x, k) of the coordinates, with no division; a power table writes it
as a sum over combinations of the binomials C(e, j), each times the
integer combination of the monomials that share it.  At (5,3) the product
table is 11.7 KB of source, most of a cold query's time when it is
compiled.  They are
constants of the basis, derived once, outside the library, by
`tools/gen_tables.py`.  The library accepts exactly the bases of
`SHIPPED_RANKS` and of rank 1; `build_hall_basis` refuses any other before
it builds a letter.  The basis is the cache: `build_hall_basis` returns
one basis per (c, r).

Bases and letters compare by value.  No field is assigned after
construction: they are treated as immutable, which nothing enforces.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from collections.abc import Callable
from functools import cached_property, lru_cache
from operator import add

from .extgcd import RejectedInput


class SizeCapExceeded(ValueError):
    """An expanded expression would be longer than `subgroups.DEFAULT_WORD_CAP`
    letters (`subgroups.expand_expression`)."""


# The bases the library accepts, with rank 1 at every class, as {class:
# largest rank}: every basis of rank 2 to 9 with at most 128 letters, except
# (9, 2), whose two tables would take 516 KB of source.  Tables ship in
# `malcev.tables` for those of top weight >= 2; the others add and scale.
SHIPPED_RANKS = {1: 9, 2: 9, 3: 6, 4: 4, 5: 3, 6: 2, 7: 2, 8: 2}
_TABLES = os.path.join(os.path.dirname(__file__), "tables")  # their files

# An ExpWord is a sequence of (letter, exponent) pairs with 1-based letter
# indices and arbitrarily large integer exponents.
ExpWord = tuple[tuple[int, int], ...]


class BasicCommutator:
    """A letter of the basis; letters compare by value."""
    __slots__ = ("weight", "left", "right")

    def __init__(self, weight: int, left: int, right: int):
        self.weight = weight
        self.left = left    # 1-based index of the left entry, 0 for generators
        self.right = right  # 1-based index of the right entry, 0 for generators

    def __eq__(self, other):
        if other.__class__ is not BasicCommutator:
            return NotImplemented
        return (self.weight, self.left, self.right) == (
            other.weight, other.left, other.right)


class HallBasis:
    """The basic commutators of class c and rank r, in weight order.  Bases
    compare by value and hash by (c, r), which determine the letters."""

    def __init__(self, c: int, r: int, letters: tuple[BasicCommutator, ...]):
        self.c = c
        self.r = r
        self.letters = letters
        self.m = len(letters)
        # The weight of each 1-based letter at its index, after a 0.
        self.weights = (0,) + tuple(bc.weight for bc in letters)
        # c for r >= 2, but 1 for r = 1, whose group is Z at every class.
        # At 1 the group is abelian and needs no table (`_polynomials`).
        self.top_weight = letters[-1].weight

    def __eq__(self, other):
        if other.__class__ is not HallBasis:
            return NotImplemented
        return (self.c, self.r, self.letters) == (
            other.c, other.r, other.letters)

    def __hash__(self):
        return hash((self.c, self.r))

    @cached_property
    def mult(self) -> Callable:
        """The product polynomials: `mult(u, v)` is the vector of u·v."""
        return _polynomials(self, "mult")

    @cached_property
    def pow_polynomials(self) -> Callable:
        """The power polynomials: `pow_polynomials(u, e)` is the vector of
        u**e for every integer e."""
        return _polynomials(self, "pow")

    @cached_property
    def commuting_from(self) -> tuple[int, ...]:
        """For each 0-based position i, the first position after i from
        which on every letter commutes with letter i by weight
        (`commute_by_weight`), or m: a suffix, as weights never decrease."""
        m = self.m
        return tuple(next((j for j in range(i + 1, m)
                           if commute_by_weight(self, i + 1, j + 1)), m)
                     for i in range(m))

    def commuting(self, u) -> bool:
        """True when every two letters of u's support commute by weight:
        after its first nonzero letter i, u is zero up to
        `commuting_from[i]`.  Then u**e = e·u for every integer e."""
        for i, x in enumerate(u):
            if x:
                return not any(u[i + 1:self.commuting_from[i]])
        return True

    def pow(self, u, e: int) -> tuple[int, ...]:
        """u**e for any integer e; trusts the length of u.  A power that is
        not a shortcut (e in {0, 1}, or u commuting) is one call of the
        power polynomials, whatever |e|, the inverse included."""
        if e == 0 or e == 1:
            return tuple(u) if e else (0,) * self.m
        if self.commuting(u):
            return tuple([e * x for x in u])
        return self.pow_polynomials(u, e)


def commute_by_weight(ctx, i: int, j: int) -> bool:
    """True when any two elements whose first nonzero columns are the
    1-based i and j commute because [Γ_a, Γ_b] <= Γ_{a+b}: they lie in
    Γ_{weights[i]} and Γ_{weights[j]}, and those weights sum past `ctx.c`,
    a bound on the nilpotency class.  A basis, a quotient presentation and
    a product context (`subgroups.ProductContext`) each have `weights`, the
    weight of each 1-based column at its index after a 0, and `c`."""
    return ctx.weights[i] + ctx.weights[j] > ctx.c


def _hall_letters(c: int, r: int) -> list[BasicCommutator]:
    """The letters in weight order.  Rank 1 has none past weight 1, so its
    cost does not depend on c."""
    letters = [BasicCommutator(1, 0, 0) for _ in range(r)]
    for w in range(2, c + 1 if r > 1 else 1):
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
        fresh.sort(key=lambda bc: (bc.left, bc.right))
        letters.extend(fresh)
    return letters


@lru_cache(maxsize=None, typed=True)
def build_hall_basis(c: int, r: int) -> HallBasis:
    """Weight-ordered basis of basic commutators for class c and rank r,
    one of `SHIPPED_RANKS` or of rank 1.  The cache is typed, so True is
    refused here rather than served the basis cached for 1."""
    if type(c) is not int or type(r) is not int:
        raise RejectedInput(f"class {c!r} and rank {r!r} must be integers")
    if c < 1 or r < 1:
        raise RejectedInput("class and rank must be positive")
    if r > 1 and r > SHIPPED_RANKS.get(c, 0):
        raise RejectedInput(
            f"class {c} and rank {r} are not supported: rank 1 is, and ranks"
            " 2-9 up to 128 basis letters, except c=9 r=2")
    return HallBasis(c, r, tuple(_hall_letters(c, r)))


# ---------------------------------------------------------------------------
# The polynomials, the length check at the public entries and words.

def table_module(kind: str, c: int, r: int) -> str:
    """Name of the module in `malcev.tables` that holds the `mult` or the
    `pow` polynomials of class c and rank r.  Each kind has its own module,
    so a process that only multiplies never loads a power."""
    return f"c{c}r{r}" if kind == "mult" else f"c{c}r{r}_{kind}"


def _polynomials(basis: HallBasis, kind: str) -> Callable:
    """The `mult` or `pow` of the basis: at top weight 1, where the group is
    abelian, the sum or the multiple, and otherwise the shipped table, run
    from its file in `_TABLES`, not imported via the package (about 0.3 ms
    more when cold), and kept, once it ran, as
    `sys.modules["malcev.tables.<name>"]`."""
    if basis.top_weight == 1:
        if kind == "mult":
            return lambda u, v: tuple(map(add, u, v))
        return lambda u, e: tuple([e * x for x in u])
    table = table_module(kind, basis.c, basis.r)
    name = f"{__package__}.tables.{table}"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(_TABLES, table + ".py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return getattr(module, kind)


def check_lengths(basis: HallBasis, *vectors) -> None:
    """Raise RejectedInput unless every vector has one entry per letter and
    each entry is an `int`: a float or a bool is not an exact coordinate."""
    m = basis.m
    for x in vectors:
        if len(x) != m:
            raise RejectedInput(
                f"coordinate vector has {len(x)} entries, the basis has {m} letters")
        for a in x:
            if type(a) is not int:
                raise RejectedInput(f"coordinate {a!r} is not an integer")


def eval_free(basis: HallBasis, word: ExpWord) -> tuple[int, ...]:
    """Coordinates of the element represented by a word with binary exponents.

    A letter power x_i**e that commutes by weight with the product's tail
    after i (`HallBasis.commuting_from`) moves past it, so it adds e to
    coordinate i; any other power is one call of `mult`.  `basis.mult` is
    read only there, so a word with no such power loads no product table.
    Letters and exponents must be `int`s, each letter in 1..m."""
    commuting_from = basis.commuting_from
    m = basis.m
    out = [0] * m  # the product so far
    for letter, e in word:
        if type(letter) is not int or type(e) is not int:
            raise RejectedInput(
                f"letter power {(letter, e)!r} is not a pair of integers")
        if not 1 <= letter <= m:
            raise RejectedInput(f"letter index {letter} out of range 1..{m}")
        if e:
            if any(out[letter:commuting_from[letter - 1]]):
                step = [0] * m
                step[letter - 1] = e
                out = list(basis.mult(out, step))
            else:
                out[letter - 1] += e
    return tuple(out)


def coords_to_word(coords) -> ExpWord:
    """Normal-form word of a coordinate vector."""
    return tuple((i + 1, e) for i, e in enumerate(coords) if e)
