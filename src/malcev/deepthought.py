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
or `def pow(u, e)`.  Each distinct monomial of degree >= 2 in the
coordinates is one product, of a shorter monomial and one variable, held
in a local `t<k>` when two or more terms or longer monomials read it; each
coordinate is written as `(integer combination of monomials) //
denominator`.  A power first computes the binomials b<j> = C(e, j) up to
the top weight, `b2 = e*(e - 1)//2`, `b3 = b2*(e - 2)//3`, ..., and writes
its coordinate of weight w in Newton form, `(Δ^1*e + Δ^2*b2 + ... +
Δ^w*b<w>) // denominator`, each Δ^j one integer combination of monomials
over the coordinate's common denominator.

`freegroup` imports the checked-in source for c <= 5, r <= 3 (generated by
`tools/gen_tables.py`) and compiles `table_source(basis, kind)` on the first
use of a kind on any other basis; a first power derives the basis's `mult`
first, if it has none yet.
`import malcev` does not load this module.
"""

from __future__ import annotations

import math

from .freegroup import HallBasis
from .series import SeriesBasis, series_mult


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
    powers = [[0] * m, xs]
    for _ in range(basis.top_weight - 1):
        powers.append(basis.mult(powers[-1], xs))
    diffs = []
    for q in range(m):
        column = [p[q] for p in powers[:basis.weight(q + 1) + 1]]
        coord = []
        while len(column) > 1:
            column = [y - x for x, y in zip(column, column[1:])]
            coord.append(column[0])
        diffs.append(tuple(coord))
    return tuple(diffs), width


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


def _newton(combos: list[str], binoms: list[str]) -> str:
    """Source of the sum over j of combos[j]·binoms[j], each nonzero term
    one product by its binomial."""
    terms = [f"({c})*{b}" if " " in c else f"{c}*{b}"
             for c, b in zip(combos, binoms) if c != "0"]
    return " + ".join(terms).replace("+ -", "- ")


def table_source(basis: HallBasis, kind: str) -> str:
    """Python source of a module defining `mult(u, v)` or `pow(u, e)` for
    the basis: the shared monomials as locals, then each coordinate as
    `(integer combination of monomials) // denominator`; for "pow", the
    binomials `b<j> = C(e, j)` first, and each coordinate as
    `(Δ^1*e + Δ^2*b2 + ... + Δ^w*b<w>) // denominator`, each Δ^j one
    integer combination over the coordinate's common denominator."""
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
        "Generated by tools/gen_tables.py from malcev.deepthought; do not edit.",
        '"""',
        "",
        "",
        f"def {kind}({', '.join(args)}):",
    ]
    lines += [f"    {', '.join(names[k * m:(k + 1) * m])}{comma} = {a}"
              for k, a in enumerate(vectors)]
    if kind == "pow":
        dens = [math.lcm(*(d.den for d in coord)) for coord in polys]
        assigns, flat = _coordinate_sources(
            [{k: v * (den // d.den) for k, v in d.terms.items()}
             for coord, den in zip(polys, dens) for d in coord], names, width)
        binoms = ["e"] + [f"b{j}" for j in range(2, basis.top_weight + 1)]
        lines += [f"    {b} = {a}*(e - {j})//{j + 1}"
                  for j, (a, b) in enumerate(zip(binoms, binoms[1:]), 1)]
        combos = iter(flat)
        bodies = [_newton([next(combos) for _ in coord], binoms)
                  for coord in polys]
    else:
        dens = [p.den for p in polys]
        assigns, bodies = _coordinate_sources([p.terms for p in polys],
                                              names, width)
    lines += [f"    {a}" for a in assigns]
    lines.append("    return (")
    lines += [f"        {body}," if den == 1 else f"        ({body}) // {den},"
              for body, den in zip(bodies, dens)]
    lines += ["    )", ""]
    return "\n".join(lines)


def compile_table(basis: HallBasis, kind: str):
    """Derive, compile and return the basis's `mult` or `pow`."""
    namespace: dict = {}
    exec(compile(table_source(basis, kind),
                 f"<{kind} c={basis.c} r={basis.r}>", "exec"), namespace)
    return namespace[kind]
