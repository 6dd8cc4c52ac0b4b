"""Kernels and preimages of homomorphisms, centralizers, conjugacy with
witnesses, the power problem, and the torsion-order bound.

Centralizers and conjugacy share one descent through G/Gamma_c (Macdonald,
Myasnikov, Nikolaev & Vassileva): one kernel per class, whose kernel is the
centralizer and whose preimage gives the conjugator."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .extgcd import RejectedInput
from .freegroup import InternalConsistencyError, build_hall_basis
from .groups import GroupElement, element, identity, inverse, mult, power
from .presentations import (QuotientPresentation, _membership_scan,
                            first_nonzero, make_quotient_presentation)
from .subgroups import ProductContext, full_form_rows


class NotInImage(ValueError):
    """The promised element is not in the image of the homomorphism."""


class NoPower(Exception):
    """Marker: h is not a power of g (within the given progression)."""


@dataclass(frozen=True)
class HomSpec:
    """phi: K -> H on K = <generators> <= G, assumed to be a homomorphism."""
    source: QuotientPresentation
    target: QuotientPresentation
    generators: tuple[GroupElement, ...]
    images: tuple[GroupElement, ...]

    def __post_init__(self):
        if len(self.generators) != len(self.images):
            raise RejectedInput("generator and image counts differ")
        for g in self.generators:
            if g.presentation != self.source:
                raise RejectedInput("generator outside the source presentation")
        for h in self.images:
            if h.presentation != self.target:
                raise RejectedInput("image outside the target presentation")


@dataclass(frozen=True)
class ConjugacyAnswer:
    witness: GroupElement | None  # None means not conjugate

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
    """Order of g, or None for infinite order.

    The pivot coordinate of g^k is k times that of g, so g^k can only be
    trivial when the pivot column has torsion e and q = e / gcd(g_piv, e)
    divides k; then g^q has a later pivot and the order is q times its order.
    """
    pres = g.presentation
    cur = g.coords
    order = 1
    while any(cur):
        piv = first_nonzero(cur)
        e = pres.torsion.get(piv)
        if e is None:
            return None
        q = e // math.gcd(cur[piv - 1], e)
        order *= q
        cur = pres.pow(cur, q)
    return order


# ---------------------------------------------------------------------------
# Kernels and preimages.

def kernel_and_preimage(spec: HomSpec, h: GroupElement | None = None
                        ) -> tuple[list[GroupElement], GroupElement | None]:
    """Full-form generating set of ker(phi) and, when h is given, some g
    with phi(g) = h.  Raises NotInImage if h is not an image."""
    if h is not None and h.presentation != spec.target:
        raise RejectedInput("h outside the target presentation")
    ctx = ProductContext(spec.target, spec.source)
    rows = [hi.coords + gi.coords
            for gi, hi in zip(spec.generators, spec.images)]
    form, _ = full_form_rows(ctx, rows)
    split = spec.target.m
    r = sum(1 for row in form if any(row[:split]))
    if any(any(row[:split]) for row in form[r:]):
        raise InternalConsistencyError("kernel row with a nonzero image part")
    kernel = [GroupElement(spec.source, row[split:]) for row in form[r:]]
    preimage = None
    if h is not None:
        image_rows = [row[:split] for row in form[:r]]
        beta = _membership_scan(spec.target, image_rows, h.coords)
        if beta is None:
            raise NotInImage("h is not in the image of the homomorphism")
        preimage = identity(spec.source)
        for row, b in zip(form[:r], beta):
            preimage = mult(preimage,
                            power(GroupElement(spec.source, row[split:]), b))
    return kernel, preimage


# ---------------------------------------------------------------------------
# Quotients by the last lower-central term.

@lru_cache(maxsize=None)
def quotient_mod_last(pres: QuotientPresentation) -> QuotientPresentation:
    """G / Gamma_c: drop the weight-c letters and truncate the relators."""
    basis = pres.basis
    if basis.c < 2:
        raise RejectedInput("class must be at least 2")
    small = build_hall_basis(basis.c - 1, basis.r)
    if basis.letters[:small.m] != small.letters:
        raise InternalConsistencyError("class c-1 basis is not a prefix")
    rows = [row[:small.m] for row in pres.relators.rows
            if first_nonzero(row) <= small.m]
    return make_quotient_presentation(small, rows)


def _project(pres_small: QuotientPresentation, g: GroupElement) -> GroupElement:
    return element(pres_small, g.coords[:pres_small.m])


def _lift(pres_big: QuotientPresentation, g: GroupElement) -> GroupElement:
    pad = g.coords + (0,) * (pres_big.m - len(g.coords))
    return element(pres_big, pad)


def _last_term_transversal(pres: QuotientPresentation) -> list[GroupElement]:
    """The weight-c basis letters, as elements."""
    basis = pres.basis
    out = []
    for i in range(1, basis.m + 1):
        if basis.weight(i) == basis.c:
            unit = [0] * basis.m
            unit[i - 1] = 1
            out.append(element(pres, unit))
    return out


def _descend(pres: QuotientPresentation, g: GroupElement, h: GroupElement
             ) -> tuple[list[GroupElement] | None, GroupElement | None]:
    """Generators of C_G(g) and some u with g = u^{-1} h u, or (None, None)
    when g and h are not conjugate.

    One descent through G/Gamma_c with one kernel per class: given C and v
    for the images of g and h in G/Gamma_c, u -> [g, u] is a homomorphism on
    the preimage of C (its image lies in the central Gamma_c).  Its kernel
    is C_G(g), and g^{-1} v^{-1} h v lies in its image exactly when g and h
    are conjugate, with a preimage w giving u = v w^{-1}.
    """
    if pres.basis.c == 1:
        # Abelian: everything centralizes g, and only g is conjugate to g.
        if g != h:
            return None, None
        return _last_term_transversal(pres), identity(pres)
    small = quotient_mod_last(pres)
    below, v = _descend(small, _project(small, g), _project(small, h))
    if below is None:
        return None, None
    v = _lift(pres, v)
    cover = [_lift(pres, z) for z in below] + _last_term_transversal(pres)
    g_inv = inverse(g)
    spec = HomSpec(source=pres, target=pres, generators=tuple(cover),
                   images=tuple(mult(mult(g_inv, inverse(u)), mult(g, u))
                                for u in cover))  # the commutators [g, u]
    target = mult(g_inv, mult(inverse(v), mult(h, v)))  # in Gamma_c
    try:
        kernel, w = kernel_and_preimage(spec, target)
    except NotInImage:
        return None, None
    u = mult(v, inverse(w))
    if mult(mult(inverse(u), h), u) != g:
        raise InternalConsistencyError("conjugacy witness fails to conjugate")
    return kernel, u


def centralizer(pres: QuotientPresentation, g: GroupElement
                ) -> list[GroupElement]:
    """Generating set of C_G(g)."""
    if g.presentation != pres:
        raise RejectedInput("element belongs to a different presentation")
    return _descend(pres, g, g)[0]


def conjugacy(pres: QuotientPresentation, g: GroupElement, h: GroupElement
              ) -> ConjugacyAnswer:
    """Witness u with g = u^{-1} h u, or the answer NotConjugate."""
    if g.presentation != pres or h.presentation != pres:
        raise RejectedInput("elements belong to a different presentation")
    return ConjugacyAnswer(_descend(pres, g, h)[1])


# ---------------------------------------------------------------------------
# The power problem.

def _merge_progressions(r1: int, m1: int, r2: int, m2: int
                        ) -> tuple[int, int] | None:
    """Intersection of r1 + m1 Z and r2 + m2 Z as (r, lcm), or None."""
    g = math.gcd(m1, m2)
    if (r1 - r2) % g:
        return None
    l = m1 // g * m2
    t = ((r2 - r1) // g * pow(m1 // g, -1, m2 // g)) % (m2 // g) if m2 > g else 0
    r = (r1 + m1 * t) % l
    return r, l


def power_problem(pres: QuotientPresentation, g: GroupElement,
                  h: GroupElement, progression: tuple[int, int] | None = None
                  ) -> int:
    """Some k with g^k = h, restricted to k in alpha + beta*Z when a
    progression is given; raises NoPower if none exists.  For torsion g the
    returned k is the smallest non-negative solution."""
    if g.presentation != pres or h.presentation != pres:
        raise RejectedInput("elements belong to a different presentation")
    if progression is not None:
        alpha, beta = progression
        if beta <= 0:
            raise RejectedInput(
                "progression step must be positive; omit the progression"
                " for unrestricted search")
    k = _power_search(pres, g.coords, h.coords, progression)
    if k is None:
        raise NoPower
    order = element_order(g)
    if order is not None:
        # All solutions form k + lcm(order, step) * Z; take the smallest
        # non-negative one.
        step = order if progression is None else math.lcm(order, progression[1])
        k %= step
    if power(g, k) != h:
        raise InternalConsistencyError("power witness k has g^k != h")
    if progression is not None and (k - progression[0]) % progression[1]:
        raise InternalConsistencyError("power witness k outside the progression")
    return k


def _power_search(pres, gc, hc, prog) -> int | None:
    """Any k (within prog) with g^k = h, else None."""
    if not any(gc):
        if any(hc):
            return None
        return 0 if prog is None else prog[0] % prog[1]
    i = min(first_nonzero(gc) or pres.m + 1, first_nonzero(hc) or pres.m + 1)
    k0 = gc[i - 1]
    l0 = hc[i - 1]
    e = pres.torsion.get(i)
    if e is None:
        # The i-th coordinate of g^k is k * k0 exactly.
        if k0 == 0 or l0 % k0:
            return None
        n = l0 // k0
        if prog is not None and (n - prog[0]) % prog[1]:
            return None
        if pres.pow(gc, n) != hc:
            return None
        return n
    # Torsion coordinate: k * k0 = l0 (mod e) pins k to a progression.
    gcd = math.gcd(k0, e)
    if l0 % gcd:
        return None
    d1 = e // gcd
    n0 = (l0 // gcd * pow(k0 // gcd, -1, d1)) % d1 if d1 > 1 else 0
    merged = (n0, d1) if prog is None else _merge_progressions(
        n0, d1, prog[0] % prog[1], prog[1])
    if merged is None:
        return None
    a, b = merged
    g2 = pres.pow(gc, b)
    h2 = pres.mult(pres.pow(gc, -a), hc)
    if any(g2[:i]) or any(h2[:i]):
        raise InternalConsistencyError("power search left the suffix subgroup")
    sub = _power_search(pres, g2, h2, None)
    if sub is None:
        return None
    return a + b * sub

