"""Derivation of the multiplication and power polynomials of a free
nilpotent group.

The Mal'cev coordinates of u·v and of u^e are fixed polynomials with
rational coefficients, integer-valued on integer inputs, in the
coordinates of u and v and in e (P. Hall, *Nilpotent groups*, 1957;
Leedham-Green & Soicher, "Symbolic collection using Deep Thought", 1998).
The product is derived by running the Magnus-series engine of `series`
once with the coordinates as indeterminates (`series_mult` of the series of
u and v).  Coordinate q of u^e is a polynomial of degree <= weight(q) in e,
so the power follows from the product: the compiled `mult`, run on
polynomials, gives u^2 .. u^w, and Newton's forward-difference formula
gives u^e as the sum over j of C(e, j) times their j-th differences Δ^j.
The inverse is the power at e = -1, where C(-1, j) = (-1)^j.  The
polynomials are emitted as straight-line Python source, `def mult(u, v)`
or `def pow(u, e)`.  Each distinct monomial of degree >= 2 in its
variables is one product, of a shorter monomial and one variable, held
in a local `t<k>` when two or more terms or longer monomials read it.

A product coordinate is written in Deep Thought's binomial basis, as an
integer combination of products of binomials C(x, k) of the coordinates,
with no division: x^n = Σ_k S(n, k)·k!·C(x, k), S the Stirling numbers of
the second kind, turns each monomial into such products, and an
integer-valued polynomial has integer coefficients in this basis.  Each
C(x, k) read is one more variable `x_k`, formed once per call by the chain
`x_2 = x*(x - 1)//2`, `x_3 = x_2*(x - 2)//3`, ...; the coordinate of
weight 4 at (3, 2) is `u4 + v4 + u2*v1_2 + u3*v1`.  Over monomials and a
common denominator it was `(2*u4 + 2*v4 - t0 + 2*u3*v1 + t0*v1) // 2`,
and the (5, 3) product took 2,497 operations, not 1,384.

A power first computes the binomials b<j> = C(e, j) up to the top weight,
`b2 = e*(e - 1)//2`, `b3 = b2*(e - 2)//3`, ...  Over its common
denominator, coordinate q of weight w is Σ_t t·(c_1·e + c_2·b2 + ... +
c_w·b<w>), the c_j the coefficients of the monomial t in Δ^1 .. Δ^w.  The
monomials whose coefficient vectors are multiples of one primitive vector
v are one term, their integer combination times v's combination of
binomials: the binomial itself when v has one nonzero entry, and
otherwise a local `p<k>` formed once per call and shared by every
coordinate.  The coordinate of weight 4 at (3, 2) is `(2*u4*e + (-t0 +
2*u1*u3)*b2 + u1*u1*u2*p0) // 2`, p0 = b2 + 2*b3.  In Newton form, one
combination of monomials per difference times its binomial, a monomial
was written once per binomial it met, and the (5, 3) power took 3,669
operations, not 2,469.  The power stays over monomials: in the binomial
basis of the coordinates the (5, 3) differences grow from 1,616 to 1,952
terms, and a (6, 2) power of 32-bit entries to a 64-bit exponent took
61 µs, not 58 µs (best of 7, 2-core x86 VM, Python 3.11).

It is a tool, not part of the library: `tools/gen_tables.py` writes
`table_source(basis, kind)` for every basis of `freegroup.SHIPPED_RANKS`,
and `freegroup` imports those modules.  The power is derived from a `mult`
compiled here from a fresh derivation, not from the shipped one, so a
stale product table cannot leak into a regenerated power table.
"""

from __future__ import annotations

import math
from functools import lru_cache

from malcev.freegroup import HallBasis
from series import SeriesBasis, series_mult


class Poly:
    """Polynomial with rational coefficients in indeterminates x_0, x_1, ...,
    held as integer coefficients over one positive common denominator.

    A monomial is an int that packs the exponent of x_j into the bits
    [j·width, (j+1)·width), so multiplying monomials adds their keys.  The
    caller picks a width that no exponent overflows; a coefficient of a
    degree-d monomial of a class-c series has weighted degree <= d <= c, so
    `c.bit_length()` suffices.  Zero coefficients are never stored, and the
    denominator is coprime to the coefficients, so the representation is
    unique.  One denominator keeps the arithmetic in integers, about four
    times as fast as a `Fraction` per coefficient, and is the form the
    emitted source takes.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: dict, den: int = 1):
        g = den
        for v in terms.values():
            if g == 1:
                break
            g = math.gcd(g, v)
        if g != 1:
            terms = {k: v // g for k, v in terms.items()}
            den //= g
        self.terms = terms
        self.den = den

    @classmethod
    def var(cls, j: int, width: int) -> Poly:
        return cls({1 << (j * width): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _combine(self, other, sign: int) -> Poly:
        if not isinstance(other, Poly):
            other = Poly({0: other} if other else {})
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = {k: v * fa for k, v in self.terms.items()}
        for mon, v in other.terms.items():
            s = out.get(mon, 0) + fb * v
            if s:
                out[mon] = s
            else:
                del out[mon]
        return Poly(out, den)

    def __add__(self, other) -> Poly:
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> Poly:
        return self._combine(other, -1)

    def __neg__(self) -> Poly:
        return self * -1

    def __mul__(self, other) -> Poly:
        if not isinstance(other, Poly):
            return Poly({k: v * other for k, v in self.terms.items()}
                        if other else {}, self.den)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = m1 + m2
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        return Poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __floordiv__(self, d: int) -> Poly:
        """Exact division by a positive integer."""
        return Poly(self.terms, self.den * d)

    def __divmod__(self, d: int) -> tuple[Poly, int]:
        """Exact division by a positive integer: the remainder is 0."""
        return self // d, 0


def derive(basis: HallBasis, kind: str) -> tuple[tuple, int]:
    """For "mult", the coordinates of u·v as polynomials in x_0..x_{m-1},
    the coordinates of u, and x_m..x_{2m-1}, those of v; for "pow",
    coordinate q of u^e as its forward differences Δ^1_q .. Δ^w_q,
    w = weight(q), polynomials in x_0..x_{m-1}, with u^e =
    Σ_j C(e, j)·Δ^j_q; with the exponent width used."""
    m, c = basis.m, basis.c
    width = c.bit_length()
    xs = [Poly.var(i, width) for i in range(m)]
    if kind == "mult":
        data = SeriesBasis(basis)
        u = data.word_series(tuple(enumerate(xs, start=1)))
        # The series of v is that of u with every x_j renamed to x_{m+j}.
        shift = m * width
        v = {mon: Poly({k << shift: coef for k, coef in p.terms.items()},
                       p.den) if isinstance(p, Poly) else p
             for mon, p in u.items()}
        return data.series_to_coords(series_mult(c, u, v)), width
    if kind != "pow":
        raise ValueError(f"no polynomials of kind {kind!r}")
    # Newton's formula over u^0..u^weight(q) is exact, as coordinate q of
    # u^e has degree <= weight(q) in e; u^0 is the identity, so Δ^0 is 0.
    mult = compile_table(basis, "mult")
    powers = [[0] * m, xs]
    for _ in range(basis.top_weight - 1):
        powers.append(mult(powers[-1], xs))
    diffs = []
    for q in range(m):
        column = [p[q] for p in powers[:basis.weights[q + 1] + 1]]
        coord = []
        while len(column) > 1:
            column = [y - x for x, y in zip(column, column[1:])]
            coord.append(column[0])
        diffs.append(tuple(coord))
    return tuple(diffs), width


@lru_cache(maxsize=None)
def _surjections(n: int) -> tuple[int, ...]:
    """S(n, k)·k! for k = 0 .. n, with S the Stirling numbers of the second
    kind: x^n is the sum over k of S(n, k)·k!·C(x, k)."""
    if n == 0:
        return (1,)
    prev = _surjections(n - 1) + (0,)
    return (0,) + tuple(k * (prev[k - 1] + prev[k]) for k in range(1, n + 1))


def binomial_terms(p: Poly, width: int, top: int) -> dict:
    """The integer coefficients of p in the basis of products of binomials
    ∏_j C(x_j, k_j), k_j <= top, by x^n = Σ_k S(n, k)·k!·C(x, k).  Each
    C(x_j, k) is one variable, numbered j·top + k - 1, so a product of
    binomials is keyed as a square-free monomial of width 1.  An
    integer-valued polynomial has integer coefficients in this basis, so a
    coefficient that is not one means the derivation is wrong: it raises
    ValueError."""
    mask = (1 << width) - 1
    out: dict = {}
    for key, coef in p.terms.items():
        terms = {0: coef}
        j = 0
        while key:
            if key & mask:
                terms = {b + (1 << j * top + k - 1): c * s
                         for b, c in terms.items()
                         for k, s in enumerate(_surjections(key & mask)) if s}
            key >>= width
            j += 1
        for b, c in terms.items():
            out[b] = out.get(b, 0) + c
    coefs = {}
    for b, c in out.items():
        q, rem = divmod(c, p.den)
        if rem:
            raise ValueError(f"binomial coefficient {c}/{p.den} of an "
                             "integer-valued polynomial is not an integer")
        if q:
            coefs[b] = q
    return coefs


def _coordinate_sources(polys: list[dict], names: list[str],
                        width: int) -> tuple[list[str], list[str]]:
    """Straight-line source of integer polynomials, each given as its
    `Poly.terms`: the assignments of the shared monomials, and one integer
    combination of monomials per polynomial.

    A monomial of degree >= 2 is built once, as the monomial without one
    factor of its last variable (in the order of `names`) times that
    variable.  One that two or more terms or longer monomials read is held
    in a local `t<k>`, assigned before its first reader; one read once is
    written inline.  Each polynomial lists its terms in the order of the
    flat polynomial: by degree, then by exponent vector, largest first.
    """
    top = len(names) - 1

    def split(key: int) -> tuple[int, int]:
        # (prefix, j) with monomial = prefix * x_j; prefix 0 at degree 1
        j = (key.bit_length() - 1) // width
        return key - (1 << j * width), j

    def flat_order(term):
        # (degree, minus the exponent vector packed with x_0 highest), in
        # time linear in the degree, not in the number of variables
        key, degree, packed = term[0], 0, 0
        while key:
            key, j = split(key)
            degree += 1
            packed += 1 << (top - j) * width
        return degree, -packed

    ordered = [sorted(p.items(), key=flat_order) for p in polys]
    reads: dict = {}
    for terms in ordered:
        for key, _ in terms:
            # a monomial's first reader builds it, which reads its prefix
            while key:
                reads[key] = reads.get(key, 0) + 1
                if reads[key] > 1:
                    break
                key = split(key)[0]
    local: dict = {}
    assigns: list[str] = []

    def source(key: int) -> str:
        if key in local:
            return local[key]
        prefix, j = split(key)
        if not prefix:
            return names[j]
        text = f"{source(prefix)}*{names[j]}"
        if reads[key] == 1:
            return text
        local[key] = f"t{len(assigns)}"
        assigns.append(f"{local[key]} = {text}")
        return local[key]

    exprs = []
    for terms in ordered:
        out = []
        for key, coef in terms:
            body = source(key)
            if abs(coef) != 1:
                body = f"{abs(coef)}*{body}"
            if out:
                out.append(("- " if coef < 0 else "+ ") + body)
            else:
                out.append(("-" if coef < 0 else "") + body)
        exprs.append(" ".join(out) if out else "0")
    return assigns, exprs


def _power_sources(coords: tuple, names: list[str], width: int,
                   binoms: list[str]) -> tuple[list[str], list[str],
                                               list[str], list[int]]:
    """Straight-line source of the power coordinates, each given as its
    differences Δ^1 .. Δ^w: the shared combinations of binomials `p<k>`,
    the shared monomials, one body per coordinate, and its denominator.

    Over its common denominator, coordinate q is Σ_t t·(c_1·e + c_2·b2 +
    ... + c_w·b<w>), the c_j the integer coefficients of the monomial t in
    its differences.  Each coefficient vector is g·v with v primitive and
    its first nonzero entry positive, and the monomials of one v are one
    term `(Σ g·t)*P_v`: P_v is the binomial itself when v has one nonzero
    entry, which is 1, and otherwise a local `p<k>`, the combination Σ
    v_j·b<j>, shared by every coordinate that reads it.  Terms are ordered
    by the degree of v, then by v; the p<k> likewise."""
    order = lambda v: (len(v), v)
    dens = [math.lcm(*(d.den for d in coord)) for coord in coords]
    groups = []
    for coord, den in zip(coords, dens):
        rows: dict = {}
        for j, d in enumerate(coord):
            for key, c in d.terms.items():
                rows.setdefault(key, [0] * len(coord))[j] = c * (den // d.den)
        by_v: dict = {}
        for key, row in rows.items():
            while not row[-1]:
                row.pop()
            g = math.gcd(*row)
            if next(filter(None, row)) < 0:
                g = -g
            by_v.setdefault(tuple(c // g for c in row), {})[key] = g
        groups.append(sorted(by_v.items(), key=lambda item: order(item[0])))
    # v ends in a nonzero entry, so it is one binomial when no other is
    shared = sorted({v for coord in groups for v, _ in coord if any(v[:-1])},
                    key=order)
    multiplier = {v: f"p{k}" for k, v in enumerate(shared)}
    combos = _coordinate_sources(
        [{1 << j: c for j, c in enumerate(v) if c} for v in shared],
        binoms, 1)[1]
    assigns, sums = _coordinate_sources(
        [terms for coord in groups for _, terms in coord], names, width)
    sums = iter(sums)
    bodies = []
    for coord in groups:
        terms = []
        for v, _ in coord:
            inner = next(sums)
            factor = multiplier.get(v) or binoms[len(v) - 1]
            terms.append(f"({inner})*{factor}" if " " in inner
                         else f"{inner}*{factor}")
        bodies.append(" + ".join(terms).replace("+ -", "- "))
    return ([f"{multiplier[v]} = {c}" for v, c in zip(shared, combos)],
            assigns, bodies, dens)


def _binomial_sources(polys: list[Poly], names: list[str], width: int,
                      top: int) -> tuple[list[str], list[str], list[str]]:
    """Straight-line source of integer-valued polynomials in the binomial
    basis: the chain of binomials `x_k = C(x, k)` each reads, `x_2 =
    x*(x - 1)//2`, `x_3 = x_2*(x - 2)//3`, ...; the shared products of
    binomials; and one integer combination per polynomial.  Each C(x, k),
    k <= top, is one more variable of `_coordinate_sources`."""
    polys = [binomial_terms(p, width, top) for p in polys]
    binomials = [[n if k == 1 else f"{n}_{k}" for k in range(1, top + 1)]
                 for n in names]
    read = 0
    for p in polys:
        for key in p:
            read |= key
    mask = (1 << top) - 1
    chains = [f"    {b[k]} = {b[k - 1]}*({b[0]} - {k})//{k + 1}"
              for j, b in enumerate(binomials)
              for k in range(1, (read >> j * top & mask).bit_length())]
    return (chains, *_coordinate_sources(
        polys, [x for b in binomials for x in b], 1))


@lru_cache(maxsize=None)
def table_source(basis: HallBasis, kind: str) -> str:
    """Python source of a module defining `mult(u, v)` or `pow(u, e)` for
    the basis.  For "mult", the binomials `x_k = C(x, k)` of the
    coordinates, then the shared products of binomials as locals, then
    each coordinate as an integer combination of products of binomials;
    for "pow", the binomials `b<j> = C(e, j)`, then their shared
    combinations `p<k>`, then the shared monomials as locals, then each
    coordinate as `(Σ_v (Σ g·t)*P_v) // denominator`, one integer
    combination of monomials times each binomial or `p<k>` it reads
    (`_power_sources`)."""
    polys, width = derive(basis, kind)
    m = basis.m
    vectors = ("u", "v") if kind == "mult" else ("u",)
    args = vectors if kind == "mult" else vectors + ("e",)
    names = [f"{a}{i}" for a in vectors for i in range(1, m + 1)]
    comma = "," if m == 1 else ""
    title = "Multiplication" if kind == "mult" else "Power"
    lines = [
        f'"""{title} polynomials of the free nilpotent group of class '
        f'{basis.c} and rank {basis.r}.',
        "",
        "Generated by tools/gen_tables.py from tools/deepthought.py; do not edit.",
        '"""',
        "",
        "",
        f"def {kind}({', '.join(args)}):",
    ]
    lines += [f"    {', '.join(names[k * m:(k + 1) * m])}{comma} = {a}"
              for k, a in enumerate(vectors)]
    if kind == "pow":
        binoms = ["e"] + [f"b{j}" for j in range(2, basis.top_weight + 1)]
        lines += [f"    {b} = {a}*(e - {j})//{j + 1}"
                  for j, (a, b) in enumerate(zip(binoms, binoms[1:]), 1)]
        shared, assigns, bodies, dens = _power_sources(polys, names, width,
                                                       binoms)
        lines += [f"    {p}" for p in shared]
    else:
        dens = [1] * m
        chains, assigns, bodies = _binomial_sources(polys, names, width,
                                                    basis.c)
        lines += chains
    lines += [f"    {a}" for a in assigns]
    lines.append("    return (")
    lines += [f"        {body}," if den == 1 else f"        ({body}) // {den},"
              for body, den in zip(bodies, dens)]
    lines += ["    )", ""]
    return "\n".join(lines)


def compile_table(basis: HallBasis, kind: str):
    """Derive, compile and return the basis's `mult` or `pow`; `derive`
    forms the powers of the power derivation with the fresh `mult`."""
    namespace: dict = {}
    exec(compile(table_source(basis, kind),
                 f"<{kind} c={basis.c} r={basis.r}>", "exec"), namespace)
    return namespace[kind]
