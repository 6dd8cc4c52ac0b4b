"""Every shipped table, and the built-in sum and multiple of a basis of top
weight 1, against the identities that define them, at random 64-bit
points.  It derives nothing, so it shares no code with the tool that wrote
the tables (`tools/deepthought.py`).

A polynomial group law on Z^m is that of the free nilpotent group F(c, r)
in Mal'cev coordinates over its Hall basis when

  (i)   it is associative, with u^0 = 0, u^1 = u and u^a u^b = u^(a+b);
  (ii)  a product whose left factor's support lies wholly before the right
        factor's is their sum, and e_i^k = k e_i for a letter e_i;
  (iii) each letter of weight >= 2 is the commutator [x, y] = x^-1 y^-1 x y
        of its left and right letters, as in `conftest.hom_image_of_letters`;
  (iv)  [Γ_i, Γ_j] <= Γ_{i+j}, where Γ_w is the set of vectors that vanish
        below weight w, and Γ_w = 1 past the top weight.

(iv) makes the group nilpotent of class at most c, so F(c, r) maps onto it;
(ii) and (iii) make that map the identity on Hall normal forms, so it is an
isomorphism (M. Hall, *The Theory of Groups*, 1959, ch. 11).  The tables
are polynomials, so a wrong coefficient fails an identity at random 64-bit
points with overwhelming probability (Schwartz-Zippel).
"""

import random

import pytest

from conftest import ACCEPTED
from malcev.freegroup import build_hall_basis


def failing_identities(basis, rng, rounds=3):
    """{identity: first failure} for the identities (i)-(iv) that the
    basis's `mult` and `pow_polynomials` break; empty when all hold."""
    mult, pw, m = basis.mult, basis.pow_polynomials, basis.m
    weights = [bc.weight for bc in basis.letters]
    top = basis.top_weight
    zero = (0,) * m
    failures: dict = {}

    def check(identity, holds, detail):
        if not holds:
            failures.setdefault(identity, detail)

    def big():
        return rng.randrange(-1 << 63, 1 << 63)

    def vector(lo=0, hi=m):
        """A random vector supported on the 0-based positions lo..hi-1."""
        return tuple(big() if lo <= j < hi else 0 for j in range(m))

    def unit(i, k=1):
        return tuple(k if j == i - 1 else 0 for j in range(m))

    def commutator(x, y):
        return mult(mult(pw(x, -1), pw(y, -1)), mult(x, y))

    def gamma(w):
        """0-based position of the first letter of weight >= w, or m."""
        return next((j for j, x in enumerate(weights) if x >= w), m)

    for i in range(1, m + 1):
        k = big()
        check("ii", pw(unit(i), k) == unit(i, k), f"e_{i}^{k} is not {k} e_{i}")
    for q, bc in enumerate(basis.letters, 1):
        if bc.weight > 1:
            check("iii", commutator(unit(bc.left), unit(bc.right)) == unit(q),
                  f"letter {q} is not [e_{bc.left}, e_{bc.right}]")
    for _ in range(rounds):
        u, v, w, a, b = vector(), vector(), vector(), big(), big()
        check("i", mult(mult(u, v), w) == mult(u, mult(v, w)),
              "(uv)w != u(vw)")
        check("i", pw(u, 0) == zero and pw(u, 1) == u, "u^0 != 0 or u^1 != u")
        check("i", mult(pw(u, a), pw(u, b)) == pw(u, a + b),
              f"u^{a} u^{b} != u^{a + b}")
        check("i", mult(pw(u, -1), u) == zero, "u^-1 u != 0")
        split = rng.randrange(m + 1)
        u, v = vector(0, split), vector(split, m)
        check("ii", mult(u, v) == tuple(x + y for x, y in zip(u, v)),
              f"a product split at position {split} is not the sum")
        for i in range(1, top + 1):
            j = rng.randint(1, top)
            lead = gamma(i + j)
            uv = commutator(vector(gamma(i)), vector(gamma(j)))
            check("iv", not any(uv[:lead]),
                  f"[Γ_{i}, Γ_{j}] leaves Γ_{i + j}")
    return failures


@pytest.mark.parametrize("c,r", ACCEPTED)
def test_shipped_tables_satisfy_the_defining_identities(c, r):
    failures = failing_identities(build_hall_basis(c, r), random.Random(c * 100 + r))
    assert not failures, f"({c},{r}) fails " + "; ".join(
        f"({name}) {detail}" for name, detail in sorted(failures.items()))


def corrupted(fn, coord, term):
    """`fn` with `term(u, x)` added to the 0-based coordinate `coord`, where
    x is the right factor of `mult` or the exponent of `pow_polynomials`."""
    def wrong(u, x):
        out = list(fn(u, x))
        out[coord] += term(u, x)
        return tuple(out)
    return wrong


# One planted corruption per identity and kind at (3,2), whose letters are
# a1, a2, a3 = [a2, a1] of weight 2 and a4 = [a3, a1], a5 = [a3, a2] of
# weight 3; positions are 0-based.  Each is caught by the identity named.
@pytest.mark.parametrize("kind,identity,coord,term", [
    # a cubic term is no cocycle
    ("mult", "i", 4, lambda u, v: u[0] * v[0] ** 2),
    # a central bilinear term keeps the law a group's, but not the sums
    ("mult", "ii", 4, lambda u, v: u[0] * v[4]),
    # one that vanishes on sums changes [e_2, e_1] by e_5
    ("mult", "iii", 4, lambda u, v: u[1] * v[0]),
    # a weight-1 product in a weight-2 coordinate puts [Γ_1, Γ_2] below Γ_3
    ("mult", "iv", 2, lambda u, v: u[0] * v[1]),
    # u^1 != u
    ("pow_polynomials", "i", 4, lambda u, e: e * e * u[0]),
    # the rest vanish at e = 0 and e = 1: e_1^k, e_2^-1 and the inverse of
    # a vector in Γ_2 go wrong
    ("pow_polynomials", "ii", 4, lambda u, e: (e * e - e) * u[0] ** 2),
    ("pow_polynomials", "iii", 4, lambda u, e: (e * e - e) * u[1] ** 2),
    ("pow_polynomials", "iv", 2, lambda u, e: (e * e - e) * u[2]),
])
def test_a_corrupted_table_fails_its_identity(monkeypatch, kind, identity,
                                              coord, term):
    basis = build_hall_basis(3, 2)
    assert not failing_identities(basis, random.Random(1))
    monkeypatch.setitem(basis.__dict__, kind,
                        corrupted(getattr(basis, kind), coord, term))
    assert identity in failing_identities(basis, random.Random(1))
