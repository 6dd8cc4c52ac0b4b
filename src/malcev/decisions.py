"""Kernels and preimages of homomorphisms, centralizers, conjugacy with
witnesses, the power problem, and the torsion-order bound.

Centralizers and conjugacy share one descent through G/Gamma_c (Macdonald,
Myasnikov, Nikolaev & Vassileva): one kernel per class, whose kernel is the
centralizer and whose preimage gives the conjugator.  The power problem is
one descent over the first nonzero columns of g and h, which finds every
solution k + nZ; the order of g is its period n.

The descents and the kernel compute on reduced coordinate vectors with the
presentation's `mult`/`pow`; only the public entries see elements.  Each
witness is re-checked: preimage, centralizer generators, conjugator and k.

No field of a `HomSpec` or a `ConjugacyAnswer` is assigned after
construction: they are treated as immutable, which nothing enforces."""

from __future__ import annotations

import math
from functools import lru_cache

from .extgcd import InternalConsistencyError, RejectedInput
from .freegroup import build_hall_basis
from .groups import GroupElement
from .presentations import (QuotientPresentation, first_nonzero,
                            make_quotient_presentation, reduce_coords)
from .subgroups import (ProductContext, _checked_scan, _power_product,
                        full_form_rows)


class NotInImage(ValueError):
    """The promised element is not in the image of the homomorphism."""


class NoPower(Exception):
    """Marker: h is not a power of g (within the given progression)."""


class HomSpec:
    """phi: K -> H on K = <generators> <= G, sending each generator to its
    image.  Whether that defines a homomorphism is checked by
    `kernel_and_preimage`, not here."""
    def __init__(self, source: QuotientPresentation,
                 target: QuotientPresentation,
                 generators: tuple[GroupElement, ...],
                 images: tuple[GroupElement, ...]):
        if len(generators) != len(images):
            raise RejectedInput("generator and image counts differ")
        for g in generators:
            if g.presentation != source:
                raise RejectedInput("generator outside the source presentation")
        for h in images:
            if h.presentation != target:
                raise RejectedInput("image outside the target presentation")
        self.source = source
        self.target = target
        self.generators = generators
        self.images = images


class ConjugacyAnswer:
    def __init__(self, witness: GroupElement | None):
        self.witness = witness  # None means not conjugate

    @property
    def conjugate(self) -> bool:
        return self.witness is not None


def torsion_bound(pres: QuotientPresentation) -> int:
    """M with x^M = 1 for every torsion element x."""
    out = 1
    for e in pres.torsion.values():
        out *= e
    return out


def element_order(g: GroupElement) -> int | None:
    """Order of g, or None for infinite order: the period n of the
    solutions j + nZ of g^j = 1."""
    pres = g.presentation
    return _power_search(pres, g.coords, pres.identity)[1] or None


# ---------------------------------------------------------------------------
# Kernels and preimages.

def kernel_and_preimage(spec: HomSpec, h: GroupElement | None = None
                        ) -> tuple[list[GroupElement], GroupElement | None]:
    """Full-form generating set of ker(phi) and, when h is given, some g
    with phi(g) = h.  Raises NotInImage if h is not an image, and
    RejectedInput if the images do not define a homomorphism: phi is
    well-defined exactly when its graph L = <(g_i, phi(g_i))> <= G x H
    meets 1 x H trivially, and with G first, 1 x H is the tail of the
    series, so no row of L's full form may lead in an H column."""
    if h is not None and h.presentation != spec.target:
        raise RejectedInput("h outside the target presentation")
    graph, _ = full_form_rows(ProductContext(spec.source, spec.target),
                              [x.coords + y.coords for x, y
                               in zip(spec.generators, spec.images)])
    if any(first_nonzero(row) > spec.source.m for row in graph):
        raise RejectedInput("the images do not define a homomorphism")
    kernel, preimage = _kernel(spec.target, spec.source,
                               [x.coords for x in spec.generators],
                               [y.coords for y in spec.images],
                               None if h is None else h.coords)
    return ([GroupElement(spec.source, z) for z in kernel],
            None if preimage is None else GroupElement(spec.source, preimage))


def _kernel(target, source, gens, images, h=None):
    """`kernel_and_preimage` on reduced coordinate vectors.  The preimage of
    h: the source halves of the graph rows (phi(x), x) to the exponents with
    which their image halves multiply back to h."""
    ctx = ProductContext(target, source)
    form, _ = full_form_rows(ctx, [y + x for x, y in zip(gens, images)])
    split = target.m
    r = sum(1 for row in form if any(row[:split]))
    if any(any(row[:split]) for row in form[r:]):
        raise InternalConsistencyError("kernel row with a nonzero image part")
    kernel = [row[split:] for row in form[r:]]
    if h is None:
        return kernel, None
    beta = _checked_scan(target, [row[:split] for row in form[:r]], h)
    if beta is None:
        raise NotInImage("h is not in the image of the homomorphism")
    return kernel, _power_product(source, [row[split:] for row in form[:r]],
                                  beta)


# ---------------------------------------------------------------------------
# Quotients by the last lower-central term.

@lru_cache(maxsize=None)
def quotient_mod_last(pres: QuotientPresentation) -> QuotientPresentation:
    """G / Gamma_c: drop the weight-c letters and truncate the relators."""
    basis = pres.basis
    if pres.c < 2:
        raise RejectedInput("class must be at least 2")
    small = build_hall_basis(pres.c - 1, basis.r)
    if basis.letters[:small.m] != small.letters:
        raise InternalConsistencyError("class c-1 basis is not a prefix")
    rows = [row[:small.m] for row in pres.relators.rows
            if first_nonzero(row) <= small.m]
    return make_quotient_presentation(small, rows)


def _descend(pres, g, h):
    """Generators of C_G(g) and some u with g = u^{-1} h u, or (None, None)
    when g and h are not conjugate; all are reduced coordinate vectors.

    One descent through G/Gamma_c with one kernel per class: given C and v
    for the images of g and h in G/Gamma_c, u -> [g, u] is a homomorphism on
    the preimage of C (its image lies in the central Gamma_c).  Its kernel
    is C_G(g), and g^{-1} v^{-1} h v lies in its image exactly when g and h
    are conjugate, with a preimage w giving u = v w^{-1}.  A normal form of
    G/Gamma_c is the prefix of one of G, and pads with zeros back into G.
    """
    basis = pres.basis
    # The weight-c letters, reduced: a letter of relative order 1 is trivial.
    top = [reduce_coords(pres, tuple(int(j == i) for j in range(basis.m)))
           for i in range(basis.m) if basis.weight(i + 1) == pres.c]
    if pres.c == 1:
        # Abelian: everything centralizes g, and only g is conjugate to g.
        return (top, pres.identity) if g == h else (None, None)
    small = quotient_mod_last(pres)
    below, v = _descend(small, g[:small.m], h[:small.m])
    if below is None:
        return None, None
    pad = (0,) * (basis.m - small.m)
    v, cover = v + pad, [z + pad for z in below] + top
    mult, pow_ = pres.mult, pres.pow
    g_inv = pow_(g, -1)
    commutators = [mult(mult(g_inv, pow_(u, -1)), mult(g, u)) for u in cover]
    target = mult(g_inv, mult(pow_(v, -1), mult(h, v)))  # in Gamma_c
    try:
        kernel, w = _kernel(pres, pres, cover, commutators, target)
    except NotInImage:
        return None, None
    u = mult(v, pow_(w, -1))
    if mult(mult(pow_(u, -1), h), u) != g:
        raise InternalConsistencyError("conjugacy witness fails to conjugate")
    return kernel, u


def centralizer(pres: QuotientPresentation, g: GroupElement
                ) -> list[GroupElement]:
    """Generating set of C_G(g)."""
    if g.presentation != pres:
        raise RejectedInput("element belongs to a different presentation")
    gens = _descend(pres, g.coords, g.coords)[0]
    if any(pres.mult(g.coords, z) != pres.mult(z, g.coords) for z in gens):
        raise InternalConsistencyError("centralizer generator fails to commute")
    return [GroupElement(pres, z) for z in gens]


def conjugacy(pres: QuotientPresentation, g: GroupElement, h: GroupElement
              ) -> ConjugacyAnswer:
    """Witness u with g = u^{-1} h u, or the answer NotConjugate."""
    if g.presentation != pres or h.presentation != pres:
        raise RejectedInput("elements belong to a different presentation")
    u = _descend(pres, g.coords, h.coords)[1]
    return ConjugacyAnswer(None if u is None else GroupElement(pres, u))


# ---------------------------------------------------------------------------
# The power problem.

def _merge_progressions(r1: int, m1: int, r2: int, m2: int
                        ) -> tuple[int, int] | None:
    """Intersection of r1 + m1 Z and r2 + m2 Z (m2 > 0) as (r, lcm) with
    0 <= r < lcm, or None; m1 = 0 means the single value r1."""
    g = math.gcd(m1, m2)
    if (r1 - r2) % g:
        return None
    l = m1 // g * m2
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g) if m2 > g else 0
    r = (r1 + m1 * t) % l if l else r1
    return r, l


def power_problem(pres: QuotientPresentation, g: GroupElement,
                  h: GroupElement, progression: tuple[int, int] | None = None
                  ) -> int:
    """Some k with g^k = h, restricted to k in alpha + beta*Z when a
    progression is given; raises NoPower if none exists.  For torsion g the
    returned k is the smallest non-negative solution.  One descent finds
    every solution k + nZ, which is merged with the progression once."""
    if g.presentation != pres or h.presentation != pres:
        raise RejectedInput("elements belong to a different presentation")
    alpha, beta = (0, 1) if progression is None else progression
    if beta <= 0:
        raise RejectedInput(
            "progression step must be positive; omit the progression"
            " for unrestricted search")
    found = _power_search(pres, g.coords, h.coords)
    merged = None if found is None else _merge_progressions(*found, alpha, beta)
    if merged is None:
        raise NoPower
    k = merged[0]
    if pres.pow(g.coords, k) != h.coords:
        raise InternalConsistencyError("power witness k has g^k != h")
    if (k - alpha) % beta:
        raise InternalConsistencyError("power witness k outside the progression")
    return k


def _power_search(pres, gc, hc) -> tuple[int, int] | None:
    """(k, n) with g^j = h exactly when j is in k + nZ, where n = 0 when g
    has infinite order; None when h is no power of g.

    At the first column where g or h is nonzero, the coordinate of g^j is
    j times that of g: at a torsion column with relative order e this pins
    j to a + bZ with b = e / gcd(g_i, e), and g^(a + bj') = h exactly when
    (g^b)^j' = g^-a h, a pair with a later first column; at a torsion-free
    column it pins j itself.
    """
    if not any(gc):
        return None if any(hc) else (0, 1)
    i = min(first_nonzero(gc) or pres.m + 1, first_nonzero(hc) or pres.m + 1)
    k0 = gc[i - 1]
    l0 = hc[i - 1]
    e = pres.torsion.get(i)
    if e is None:
        # The i-th coordinate of g^j is j * k0 exactly.
        if k0 == 0 or l0 % k0 or pres.pow(gc, l0 // k0) != hc:
            return None
        return l0 // k0, 0
    # Torsion coordinate: j * k0 = l0 (mod e) pins j to a + bZ.
    gcd = math.gcd(k0, e)
    if l0 % gcd:
        return None
    b = e // gcd
    a = l0 // gcd * pow(k0 // gcd, -1, b) % b
    g2 = pres.pow(gc, b)
    h2 = pres.mult(pres.pow(gc, -a), hc) if a else hc
    if any(g2[:i]) or any(h2[:i]):
        raise InternalConsistencyError("power search left the suffix subgroup")
    sub = _power_search(pres, g2, h2)
    if sub is None:
        return None
    return a + b * sub[0], b * sub[1]
