"""Kernels and preimages of homomorphisms, centralizers, conjugacy with
witnesses, the power problem, and the torsion-order bound.

Centralizers and conjugacy share one descent through the layers
Γ_w/Γ_{w+1} of G (Macdonald, Myasnikov, Nikolaev & Vassileva).  At each
layer u -> [g, u] is a homomorphism into an abelian group, so a step sifts
an integer lattice, whose kernel gives the next tower and whose image the
conjugator's next factor; the last step's tower is C_G(g).  A step reads g
only up to its layer, so `_tower` caches it, as tuples, keyed by the
presentation and those coordinates, in an `lru_cache` of 128 entries: the
c - 1 steps are made once per coset g Γ_c while it stays cached.  The walk
that finds the conjugator for each h, and every witness check, run on
every call with the caller's own g.  The power problem is one descent over
the first nonzero columns of g and h: each narrows the exponent to a
progression, the requested one first, and the last leaves every solution
k + nZ; the order of g is its period n.

The descents and the kernel compute on reduced coordinate vectors with the
presentation's `mult`/`pow`; only the public entries see elements.  Each
witness is re-checked: preimage, centralizer generators, conjugator and k.

No field of a `HomSpec` or a `ConjugacyAnswer` is assigned after
construction: they are treated as immutable, which nothing enforces."""

from __future__ import annotations

import math
from functools import lru_cache

from .extgcd import InternalConsistencyError, RejectedInput
from .freegroup import BasicCommutator, HallBasis
from .groups import GroupElement
from .presentations import (FullFormMatrix, QuotientPresentation,
                            first_nonzero, reduce_coords)
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
    return math.prod(pres.torsion.values())


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
    well-defined exactly when the reversed map, from the images to the
    generators, has trivial kernel, the part in 1 x H of the graph
    L = <(g_i, phi(g_i))> <= G x H.  The kernel's sift, in H x G, starts
    from the rows of that check's full form, which generate L too: sifted
    from the generators, the entries of a small map from F(5,3) grew past
    64 bits."""
    if h is not None and h.presentation != spec.target:
        raise RejectedInput("h outside the target presentation")
    gens = [x.coords for x in spec.generators]
    images = [y.coords for y in spec.images]
    bad, gens, images = _graph(spec.source, spec.target, images, gens)
    if bad:
        raise RejectedInput("the images do not define a homomorphism")
    kernel, images, sources = _graph(spec.target, spec.source, gens, images)
    preimage = None
    if h is not None:  # the source halves to the powers that give h
        beta = _checked_scan(spec.target, images, h.coords)
        if beta is None:
            raise NotInImage("h is not in the image of the homomorphism")
        preimage = _power_product(spec.source, sources, beta)
        preimage = GroupElement(spec.source, preimage)
    return [GroupElement(spec.source, z) for z in kernel], preimage


def _graph(target, source, gens, images):
    """The full form of the graph <(phi(x), x)> in target x source, split
    into the kernel of phi (the source halves of the rows with a trivial
    image half) and the image and source halves of the other rows, on
    reduced coordinate vectors, as three tuples."""
    ctx = ProductContext(target, source)
    form, _ = full_form_rows(ctx, [y + x for x, y in zip(gens, images)])
    split = target.m
    r = sum(1 for row in form if any(row[:split]))
    if any(any(row[:split]) for row in form[r:]):
        raise InternalConsistencyError("kernel row with a nonzero image part")
    return (tuple(row[split:] for row in form[r:]),
            tuple(row[:split] for row in form[:r]),
            tuple(row[split:] for row in form[:r]))


# ---------------------------------------------------------------------------
# The descent through the layers of G.

@lru_cache
def _abelian(n, rows=()):
    """Z^n modulo full-form rows, of top weight 1: it adds and scales."""
    basis = HallBasis(1, n, (BasicCommutator(1, 0, 0),) * n)
    return QuotientPresentation(basis, FullFormMatrix(rows))


@lru_cache
def _layer(pres, w):
    """The weight-w columns as a slice, where a reduced element of Γ_w
    starts and reads its image in Γ_w/Γ_{w+1}; that layer, Z^n modulo the
    relator rows that lead there; and the weight-w letters, reduced."""
    cols = [i for i in range(pres.m) if pres.weights[i + 1] == w]
    block = slice(cols[0], cols[-1] + 1)
    rows = tuple(row[block] for row in pres.relators.rows
                 if block.start < first_nonzero(row) <= block.stop)
    return block, _abelian(len(cols), rows), tuple(
        reduce_coords(pres, tuple(int(j == i) for j in range(pres.m)))
        for i in cols)


@lru_cache
def _tower(pres, head):
    """For g's coordinates `head` through weight w < c, which fix [g, u]
    modulo Γ_{w+2}: generators of T_{w+1} = {u : [g, u] in Γ_{w+2}}, in
    full form if that is C_G(g), and the image and G halves of the other
    rows of its graph.  The tower through weight w - 1, a polycyclic
    sequence k_i of T_w modulo Γ_{w+1}, maps by u -> [g, u] modulo Γ_{w+2},
    a homomorphism as [g, uv] = [g, v][g, u]^v, into the layer w + 1 with
    kernel T_{w+1}.  `_graph` sifts e -> sum e_i [g, k_i] there times Z^s.
    By induction down the sequence, the k^e = k_1^e_1 ... k_s^e_s of the
    kernel rows e, again such a sequence, and the weight-(w+1) letters
    generate T_{w+1}.  An empty `head` gives T_1 = G: its weight-1 letters."""
    w = pres.weights[len(head)]
    block, layer, letters = _layer(pres, w + 1)
    if not head:
        return letters, (), ()
    cover = _tower(pres, head[:_layer(pres, w)[0].start])[0]
    mult, pow_ = pres.mult, pres.pow
    g = head + (0,) * (pres.m - len(head))
    g_inv, s = pow_(g, -1), len(cover)
    units = [tuple(int(i == j) for j in range(s)) for i in range(s)]
    phi = [mult(mult(g_inv, pow_(k, -1)), mult(g, k))[block] for k in cover]
    kernel, images, exponents = _graph(layer, _abelian(s), units, phi)
    gens, sources = (tuple(_power_product(pres, cover, e) for e in rows)
                     for rows in (kernel, exponents))
    if w + 1 == pres.c:
        return full_form_rows(pres, gens + letters)[0], images, sources
    return gens + letters, images, sources


def _conjugator(pres, g, h):
    """Some u with g = u^{-1} h u, or None.  The images of g and h in G/Γ_2
    must be equal.  Then for w = 1, ..., c - 1, given u with u^{-1} h u =
    g t for t in Γ_{w+1}, some x has t = [g, x] modulo Γ_{w+2} exactly when
    g and h are conjugate, and u x^{-1} serves modulo Γ_{w+2}."""
    block = _layer(pres, 1)[0]
    if g[block] != h[block]:
        return None
    mult, pow_ = pres.mult, pres.pow
    g_inv, u = pow_(g, -1), pres.identity
    for w in range(1, pres.c):
        block, layer, _ = _layer(pres, w + 1)
        _, images, sources = _tower(pres, g[:block.start])
        t = mult(g_inv, mult(pow_(u, -1), mult(h, u)))
        beta = _checked_scan(layer, images, t[block])
        if beta is None:
            return None
        u = mult(u, pow_(_power_product(pres, sources, beta), -1))
    if mult(mult(pow_(u, -1), h), u) != g:
        raise InternalConsistencyError("conjugacy witness fails to conjugate")
    return u


def centralizer(pres: QuotientPresentation, g: GroupElement
                ) -> list[GroupElement]:
    """Generating set of C_G(g)."""
    if g.presentation != pres:
        raise RejectedInput("element belongs to a different presentation")
    gens = _tower(pres, g.coords[:_layer(pres, pres.c)[0].start])[0]
    if any(pres.mult(g.coords, z) != pres.mult(z, g.coords) for z in gens):
        raise InternalConsistencyError("centralizer generator fails to commute")
    return [GroupElement(pres, z) for z in gens]


def conjugacy(pres: QuotientPresentation, g: GroupElement, h: GroupElement
              ) -> ConjugacyAnswer:
    """Witness u with g = u^{-1} h u, or the answer NotConjugate."""
    if g.presentation != pres or h.presentation != pres:
        raise RejectedInput("elements belong to a different presentation")
    u = _conjugator(pres, g.coords, h.coords)
    return ConjugacyAnswer(None if u is None else GroupElement(pres, u))


# ---------------------------------------------------------------------------
# The power problem.

def power_problem(pres: QuotientPresentation, g: GroupElement,
                  h: GroupElement, progression: tuple[int, int] | None = None
                  ) -> int:
    """Some k with g^k = h, restricted to k in alpha + beta*Z when a
    progression is given; raises NoPower if none exists.  For torsion g the
    returned k is the smallest non-negative solution.  One descent, whose
    first narrowing is the progression, finds every solution k + nZ."""
    if g.presentation != pres or h.presentation != pres:
        raise RejectedInput("elements belong to a different presentation")
    pair = (0, 1) if progression is None else progression
    if type(pair) not in (tuple, list) or list(map(type, pair)) != [int, int]:
        raise RejectedInput(
            f"progression {progression!r} is not a pair of integers")
    alpha, beta = pair
    if beta <= 0:
        raise RejectedInput(
            "progression step must be positive; omit the progression"
            " for unrestricted search")
    found = _power_search(pres, g.coords, h.coords, alpha, beta)
    if found is None:
        raise NoPower
    k, n = found
    if n:
        k %= n
    if pres.pow(g.coords, k) != h.coords:
        raise InternalConsistencyError("power witness k has g^k != h")
    if (k - alpha) % beta:
        raise InternalConsistencyError("power witness k outside the progression")
    return k


def _power_search(pres, gc, hc, a=0, b=1, done=0
                  ) -> tuple[int, int] | None:
    """(k, n) such that g^j = h for j in a + bZ exactly when j is in
    k + nZ, with n = 0 for a single j; None when no j in a + bZ does.

    g^(a + bj') = h exactly when (g^b)^j' = g^-a h, so the search narrows
    to that pair, whose columns before `done` are zero.  At its first
    column i where either is nonzero, the coordinate of (g^b)^j' is j'
    times that of g^b: at a torsion column with relative order e this pins
    j' to a' + b'Z with b' = e / gcd(g_i, e), the pair's next narrowing,
    and at a torsion-free column it pins j' itself.  A requested
    progression is the first narrowing; (0, 1) narrows by nothing, and
    keeps g as it is.

    So a None is itself a proof, by plain arithmetic: at column i of the
    last pair, either j' * g_i = h_i, modulo e at a torsion column, has no
    solution (g = 1 and h != 1 is the case g_i = 0), or the torsion-free
    column pins j' = h_i / g_i and g^j' != h.
    """
    g2 = pres.pow(gc, b) if b != 1 else gc
    h2 = pres.mult(pres.pow(gc, -a), hc) if a else hc
    if any(g2[:done]) or any(h2[:done]):
        raise InternalConsistencyError("power search left the suffix subgroup")
    if not any(g2):
        return None if any(h2) else (a, b)
    i = min(first_nonzero(g2) or pres.m + 1, first_nonzero(h2) or pres.m + 1)
    k0 = g2[i - 1]
    l0 = h2[i - 1]
    e = pres.torsion.get(i)
    if e is None:
        # The i-th coordinate of (g^b)^j' is j' * k0 exactly.
        if k0 == 0 or l0 % k0 or pres.pow(g2, l0 // k0) != h2:
            return None
        return a + b * (l0 // k0), 0
    # Torsion coordinate: j' * k0 = l0 (mod e) pins j' to a' + b'Z.
    gcd = math.gcd(k0, e)
    if l0 % gcd:
        return None
    step = e // gcd
    sub = _power_search(pres, g2, h2,
                        l0 // gcd * pow(k0 // gcd, -1, step) % step, step, i)
    if sub is None:
        return None
    return a + b * sub[0], b * sub[1]
