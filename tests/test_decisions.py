import ast
import io
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import malcev as M
from conftest import (FiniteGroup, hom_apply, hom_image_of_letters,
                      oracle_centralizer, oracle_conjugator,
                      random_finite_presentation)
from malcev import cli, decisions, subgroups
from malcev.extgcd import InternalConsistencyError
from malcev.presentations import first_nonzero
from malcev.parsing import parse_document


HEIS = M.free_presentation(2, 2)


def letter_elements(pres):
    out = []
    for i in range(pres.m):
        unit = [0] * pres.m
        unit[i] = 1
        out.append(M.element(pres, unit))
    return out


# ---------------------------------------------------------------------------
# Orders and the torsion bound.

def test_torsion_bound_fixtures():
    assert M.torsion_bound(HEIS) == 1
    b = M.build_hall_basis(1, 2)
    pres = M.make_quotient_presentation(b, ((2, 0), (0, 3)))
    assert M.torsion_bound(pres) == 6


def test_element_order_matches_brute_force_and_divides_bound():
    rng = random.Random(51)
    for _ in range(3):
        pres = random_finite_presentation(rng, 2, 2)
        fg = FiniteGroup(pres)
        bound = M.torsion_bound(pres)
        for _ in range(15):
            g = M.element(pres, rng.choice(fg.elements))
            order = M.element_order(g)
            if g.is_identity():
                assert order == 1
            else:
                assert order == fg.element_order_brute(g.coords)
            assert bound % order == 0


def test_element_order_infinite():
    assert M.element_order(M.element(HEIS, (1, 0, 0))) is None
    assert M.element_order(M.identity(HEIS)) == 1


def test_element_order_with_large_prime_torsion():
    # Factoring the torsion bound here would take far too long.
    b = M.build_hall_basis(1, 2)
    pres = M.from_finite_presentation(
        b, [((1, 1000000007),), ((2, 998244353),)])
    g = M.element(pres, (1, 1))
    assert M.element_order(g) == 1000000007 * 998244353
    assert M.power_problem(pres, g, M.power(g, 12345)) == 12345


# ---------------------------------------------------------------------------
# Kernels and preimages.

def test_kernel_of_identity_map_is_trivial():
    gens = tuple(letter_elements(HEIS))
    spec = M.HomSpec(HEIS, HEIS, gens, gens)
    kernel, pre = M.kernel_and_preimage(spec, M.element(HEIS, (2, -1, 3)))
    assert kernel == []
    assert pre == M.element(HEIS, (2, -1, 3))


def test_kernel_of_zero_map_is_whole_subgroup():
    gens = tuple(letter_elements(HEIS))
    images = tuple(M.identity(HEIS) for _ in gens)
    spec = M.HomSpec(HEIS, HEIS, gens, images)
    kernel, pre = M.kernel_and_preimage(spec, M.identity(HEIS))
    assert [k.coords for k in kernel] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert pre is not None and spec.source == pre.presentation
    with pytest.raises(M.NotInImage):
        M.kernel_and_preimage(spec, M.element(HEIS, (1, 0, 0)))


def test_kernel_fixture_rank_two_to_rank_one():
    # phi: Z^2 -> Z with a1 -> t^2, a2 -> t^3; kernel <(3, -2)>, and t has
    # the preimage a1^2 a2^-1.
    src = M.free_presentation(1, 2)
    tgt = M.free_presentation(1, 1)
    spec = M.HomSpec(src, tgt, tuple(letter_elements(src)),
                     (M.element(tgt, (2,)), M.element(tgt, (3,))))
    kernel, pre = M.kernel_and_preimage(spec, M.element(tgt, (1,)))
    assert [k.coords for k in kernel] == [(3, -2)]
    assert pre.coords == (2, -1)
    with pytest.raises(M.RejectedInput):
        M.kernel_and_preimage(spec, M.element(src, (1, 0)))


def test_kernel_with_a_central_image_closes_its_graph_rows():
    # phi: a1 -> [a2, a1], a2 -> 1 on the Heisenberg group.  The graph row
    # of a1 leads at the weight-2 letter of the target, but its source part
    # a1 is arbitrary, so the product context weighs target columns 1:
    # conjugating the graph row of a2 by it gives the kernel row [a2, a1].
    a1, a2 = letter_elements(HEIS)[:2]
    spec = M.HomSpec(HEIS, HEIS, (a1, a2),
                     (M.element(HEIS, (0, 0, 1)), M.identity(HEIS)))
    kernel, pre = M.kernel_and_preimage(spec, M.element(HEIS, (0, 0, 3)))
    assert [z.coords for z in kernel] == [(0, 1, 0), (0, 0, 1)]
    assert pre.coords == (3, 0, 0)


def test_random_homomorphisms_kernel_and_preimage():
    rng = random.Random(53)
    src = M.free_presentation(2, 2)
    src_letters = letter_elements(src)
    for _ in range(8):
        tgt = random_finite_presentation(rng, 2, 2)
        w1 = [M.element(tgt, tuple(rng.randint(-3, 3) for _ in range(tgt.m)))
              for _ in range(src.basis.r)]
        images = hom_image_of_letters(src.basis, w1)
        spec = M.HomSpec(src, tgt, tuple(src_letters), tuple(images))
        kernel, _ = M.kernel_and_preimage(spec)
        for k in kernel:
            assert hom_apply(images, k.coords).is_identity()
        g = M.element(src, tuple(rng.randint(-4, 4) for _ in range(src.m)))
        h = hom_apply(images, g.coords)
        _, pre = M.kernel_and_preimage(spec, h)
        assert hom_apply(images, pre.coords) == h


def test_kernel_sift_starts_from_the_checks_rows(monkeypatch):
    # F(5,3) -> F(2,2)/<a1^3, a2^3>.  Sifted from the generators in the
    # target-first order, its graph's entries passed 64 bits and the call
    # ran for minutes; from the homomorphism check's rows they stay small.
    def bounded(poly):  # `mult(u, v)` or `pow_polynomials(u, e)`
        def call(u, x):
            entries = (*u, x) if isinstance(x, int) else (*u, *x)
            if max(abs(e) for e in entries).bit_length() > 64:
                raise AssertionError("an entry of more than 64 bits")
            return poly(u, x)
        return call

    src = M.free_presentation(5, 3)
    tgt = M.from_finite_presentation(M.build_hall_basis(2, 2),
                                     [((1, 3),), ((2, 3),)])
    for basis in (src.basis, tgt.basis):
        for name in ("mult", "pow_polynomials"):
            monkeypatch.setattr(basis, name, bounded(getattr(basis, name)))
    w1 = [M.element(tgt, v) for v in ((1, 0, 0), (1, 0, 1), (1, 2, 0))]
    spec = M.HomSpec(src, tgt, tuple(letter_elements(src)[:3]), tuple(w1))
    rows = [z.coords for z in M.kernel_and_preimage(spec)[0]]
    assert [first_nonzero(row) for row in rows] == list(range(1, 81))
    assert math.prod(row[i] for i, row in enumerate(rows)) == 27
    images = hom_image_of_letters(src.basis, w1)
    assert all(hom_apply(images, row).is_identity() for row in rows)


def test_inner_automorphism_has_trivial_kernel():
    rng = random.Random(54)
    pres = random_finite_presentation(rng, 2, 2)
    u = M.element(pres, tuple(rng.randint(-3, 3) for _ in range(pres.m)))
    gens = tuple(letter_elements(pres))
    images = tuple(M.mult(M.mult(M.inverse(u), g), u) for g in gens)
    kernel, _ = M.kernel_and_preimage(M.HomSpec(pres, pres, gens, images))
    assert kernel == []


def test_hom_spec_validation():
    with pytest.raises(M.RejectedInput):
        M.HomSpec(HEIS, HEIS, tuple(letter_elements(HEIS)), ())
    other = M.free_presentation(1, 2)
    with pytest.raises(M.RejectedInput):
        M.HomSpec(HEIS, HEIS, (M.identity(other),), (M.identity(HEIS),))
    with pytest.raises(M.RejectedInput):
        M.HomSpec(HEIS, HEIS, (M.identity(HEIS),), (M.identity(other),))


# ---------------------------------------------------------------------------
# Centralizers and conjugacy.

def test_centralizer_heisenberg_fixture():
    gens = M.centralizer(HEIS, M.element(HEIS, (1, 0, 0)))
    assert [g.coords for g in gens] == [(1, 0, 0), (0, 0, 1)]
    # a central element is centralized by everything
    gens = M.centralizer(HEIS, M.element(HEIS, (0, 0, 5)))
    assert [g.coords for g in gens] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_centralizer_matches_brute_force():
    rng = random.Random(61)
    for _ in range(3):
        pres = random_finite_presentation(rng, 2, 2)
        fg = FiniteGroup(pres)
        for _ in range(6):
            g = M.element(pres, rng.choice(fg.elements))
            gens = M.centralizer(pres, g)
            for u in gens:
                assert M.mult(u, g) == M.mult(g, u)
            closure = fg.subgroup_closure([u.coords for u in gens])
            assert closure == fg.centralizer_brute(g.coords)


def test_centralizer_kernels_skip_pairs_that_commute_by_weight(monkeypatch):
    # The descent sifts each layer's graph in the product of two contexts
    # of top weight 1, the layer and Z^s, whose columns all weigh 1, so the
    # closure skips every pair by weight and sifts only relative-order
    # powers.  The graphs in G x G of the descent through G/Gamma_c took 60
    # operations on this input with that skip and 95 without it.
    pres = M.from_finite_presentation(M.build_hall_basis(3, 2),
                                      [((1, 3),), ((2, 3),)])
    calls = []

    class CountingProduct(decisions.ProductContext):
        def mult(self, u, v):
            calls.append(1)
            return super().mult(u, v)

        def pow(self, u, e):
            calls.append(1)
            return super().pow(u, e)

    monkeypatch.setattr(decisions, "ProductContext", CountingProduct)
    g = M.element(pres, (2, 1, 0, 0, 0))
    gens = M.centralizer(pres, g)
    assert len(calls) <= 70
    fg = FiniteGroup(pres)
    closure = fg.subgroup_closure([u.coords for u in gens])
    assert closure == fg.centralizer_brute(g.coords)


def test_conjugacy_heisenberg_fixture():
    g = M.element(HEIS, (1, 0, 2))
    h = M.element(HEIS, (1, 0, 0))
    ans = M.conjugacy(HEIS, g, h)
    assert ans.conjugate
    u = ans.witness
    assert M.mult(M.mult(M.inverse(u), h), u) == g
    # distinct abelianizations are never conjugate
    assert not M.conjugacy(HEIS, M.element(HEIS, (2, 0, 0)), h).conjugate
    # distinct central elements are never conjugate
    assert not M.conjugacy(HEIS, M.element(HEIS, (0, 0, 1)),
                           M.element(HEIS, (0, 0, 2))).conjugate


def test_images_in_the_abelianization_that_differ_in_one_letter(tmp_path):
    # g and h differ in a3 alone, so their images in G/Γ_2 differ and they
    # are not conjugate; the descent's first check must read every
    # weight-1 letter, not just a1 and a2.
    pres = M.free_presentation(2, 3)
    rng = random.Random(47)
    path = tmp_path / "conj.txt"
    for _ in range(200):
        g = [rng.randint(-5, 5) for _ in range(pres.m)]
        h = list(g)
        h[2] += rng.choice((-1, 1)) * rng.randint(1, 5)
        ans = M.conjugacy(pres, M.element(pres, g), M.element(pres, h))
        assert ans.witness is None
        words = ["word" + "".join(f" a{i}^{x}" for i, x in enumerate(v, 1))
                 for v in (g, h)]
        path.write_text("\n".join(["group c=2 r=3", *words, ""]))
        out = io.StringIO()
        assert cli.run(["conj", str(path)], out, io.StringIO()) == 1
        assert out.getvalue() == "no\n"


def test_conjugacy_matches_brute_force():
    rng = random.Random(62)
    for _ in range(2):
        pres = random_finite_presentation(rng, 2, 2)
        fg = FiniteGroup(pres)
        for _ in range(12):
            g = M.element(pres, rng.choice(fg.elements))
            if rng.random() < 0.5:
                u = M.element(pres, rng.choice(fg.elements))
                h = M.mult(M.mult(u, g), M.inverse(u))
            else:
                h = M.element(pres, rng.choice(fg.elements))
            ans = M.conjugacy(pres, g, h)
            brute = fg.conjugator_brute(g.coords, h.coords)
            assert ans.conjugate == (brute is not None)
            if ans.conjugate:
                w = ans.witness
                assert M.mult(M.mult(M.inverse(w), h), w) == g


def test_class_three_descent_matches_brute_force():
    # At class 3 the descent runs through G/Gamma_3 and G/Gamma_2.
    rng = random.Random(63)
    conjugate = 0
    for _ in range(3):
        pres = random_finite_presentation(rng, 3, 2, max_pivot=3)
        fg = FiniteGroup(pres)
        for _ in range(8):
            g = M.element(pres, rng.choice(fg.elements))
            gens = M.centralizer(pres, g)
            closure = fg.subgroup_closure([u.coords for u in gens])
            assert closure == fg.centralizer_brute(g.coords)
            if rng.random() < 0.5:
                u = M.element(pres, rng.choice(fg.elements))
                h = M.mult(M.mult(u, g), M.inverse(u))
            else:
                h = M.element(pres, rng.choice(fg.elements))
            ans = M.conjugacy(pres, g, h)
            brute = fg.conjugator_brute(g.coords, h.coords)
            assert ans.conjugate == (brute is not None)
            if ans.conjugate:
                w = ans.witness
                assert M.mult(M.mult(M.inverse(w), h), w) == g
                conjugate += 1
    assert conjugate >= 8


@pytest.mark.parametrize("c", [2, 3, 4])
def test_descent_makes_one_kernel_per_class(monkeypatch, c):
    # One graph per layer Gamma_w / Gamma_{w+1}, w = 2..c, each in the
    # product of two contexts of top weight 1: the layer and Z^s.  At rank
    # 2 the layers of weights 2, 3 and 4 have 1, 2 and 3 letters.
    layers = []
    graph = decisions._graph

    def counted(target, source, *args):
        assert target.c == source.c == 1
        layers.append(target.m)
        return graph(target, source, *args)

    monkeypatch.setattr(decisions, "_graph", counted)
    rng = random.Random(64 + c)
    pres = M.free_presentation(c, 2)
    g, u = (M.element(pres, tuple(rng.randint(-3, 3) for _ in range(pres.m)))
            for _ in range(2))
    h = M.mult(M.mult(u, g), M.inverse(u))
    w = M.conjugacy(pres, g, h).witness
    assert M.mult(M.mult(M.inverse(w), h), w) == g
    assert sorted(layers) == list(range(1, c))
    layers.clear()
    # With an empty cache the centralizer builds every layer again.
    decisions._tower.cache_clear()
    M.centralizer(pres, g)
    assert sorted(layers) == list(range(1, c))


@pytest.mark.parametrize("c", [3, 4])
def test_conjugacy_and_centralizer_share_the_tower(monkeypatch, c):
    # The towers of the descent depend on g alone: after conjugacy(g, h1)
    # has built one graph full form per layer 2..c, in contexts of class 1,
    # and the full form of C_G(g) in G, conjugacy(g, h2) and centralizer(g)
    # build none, and all three answer as they do from an empty cache.
    built = []
    full_form = decisions.full_form_rows

    def counted(ctx, *args):
        built.append(ctx.c)
        return full_form(ctx, *args)

    monkeypatch.setattr(decisions, "full_form_rows", counted)
    rng = random.Random(80 + c)
    pres = M.free_presentation(c, 2)
    g, u1, u2 = (M.element(pres, tuple(rng.randint(-3, 3)
                                       for _ in range(pres.m)))
                 for _ in range(3))
    h1, h2 = (M.mult(M.mult(u, g), M.inverse(u)) for u in (u1, u2))

    def answers():
        return (M.conjugacy(pres, g, h1).witness,
                M.conjugacy(pres, g, h2).witness, M.centralizer(pres, g))

    w1 = M.conjugacy(pres, g, h1).witness
    assert sorted(built) == [1] * (c - 1) + [c]
    built.clear()
    w2 = M.conjugacy(pres, g, h2).witness
    gens = M.centralizer(pres, g)
    assert built == []
    decisions._tower.cache_clear()
    assert answers() == (w1, w2, gens)
    for w, h in ((w1, h1), (w2, h2)):
        assert M.mult(M.mult(M.inverse(w), h), w) == g


GRAPH = decisions._graph


def corrupt_graph(target, source, *args):
    """`decisions._graph` with the last unit vector of the exponent space
    added to its kernel and to each exponent row.  On the tower of g = (1,
    0, 2) in HEIS, whose cover is a1, a2, C_G(g) gains a2, which does not
    commute with g, and the image row's a2^-1 becomes 1, so the
    conjugator's step x = a2^2 becomes 1."""
    kernel, images, exponents = GRAPH(target, source, *args)
    unit = source.identity[:-1] + (1,)
    return (kernel + (unit,), images,
            tuple(source.mult(e, unit) for e in exponents))


def test_witness_checks_run_on_cache_hits(monkeypatch):
    # The tower of g = (1, 0, 2) is corrupted once, when it is built
    # (`corrupt_graph`).  Both entries raise on the call that builds it
    # and again on every call that finds it cached.
    monkeypatch.setattr(decisions, "_graph", corrupt_graph)
    g, h = M.element(HEIS, (1, 0, 2)), M.element(HEIS, (1, 0, 0))
    with pytest.raises(InternalConsistencyError, match="commute"):
        M.centralizer(HEIS, g)
    monkeypatch.undo()
    built = decisions._tower.cache_info().misses
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match="commute"):
            M.centralizer(HEIS, g)
        with pytest.raises(InternalConsistencyError, match="conjugate"):
            M.conjugacy(HEIS, g, h)
    info = decisions._tower.cache_info()
    assert info.misses == built and info.hits >= 4


Z3_32 = M.from_finite_presentation(M.build_hall_basis(3, 2),
                                  [((1, 3),), ((2, 3),)])


@pytest.mark.parametrize("pres", [M.free_presentation(3, 2), Z3_32],
                         ids=["free", "mod_cubes"])
def test_coset_of_gamma_c_shares_one_tower(pres):
    # g and gz, with z in Gamma_3 (the weight-3 letters, torsion modulo the
    # cubes), share every cache entry, and answer as from an empty cache.
    g, u, z = (M.element(pres, v) for v in
               ((1, 2, 1, 2, 0), (2, 1, 0, 1, 1), (0, 0, 0, 1, 2)))
    gz = M.mult(g, z)
    assert gz.coords[:3] == g.coords[:3] and gz != g

    def answers(x):
        h = M.mult(M.mult(u, x), M.inverse(u))
        return (M.centralizer(pres, x), M.conjugacy(pres, x, h).witness,
                M.conjugacy(pres, x, M.mult(h, z)).witness,
                M.conjugacy(pres, x, M.mult(x, u)).witness)

    answers(g)
    misses = decisions._tower.cache_info().misses
    found = answers(gz)
    assert decisions._tower.cache_info().misses == misses
    decisions._tower.cache_clear()
    assert answers(gz) == found
    gens, witness = found[:2]
    assert all(M.mult(gz, y) == M.mult(y, gz) for y in gens)
    h = M.mult(M.mult(u, gz), M.inverse(u))
    assert M.mult(M.mult(M.inverse(witness), h), witness) == gz


def test_corrupt_tower_raises_for_the_whole_coset(monkeypatch):
    # The tower of the coset of g = (1, 0, 2) is corrupted when it is
    # built, as in test_witness_checks_run_on_cache_hits.  g and gz =
    # (1, 0, 5) read that one entry, and each checks it against itself.
    monkeypatch.setattr(decisions, "_graph", corrupt_graph)
    h = M.element(HEIS, (1, 0, 0))
    for coords in ((1, 0, 2), (1, 0, 5)):
        g = M.element(HEIS, coords)
        with pytest.raises(InternalConsistencyError, match="commute"):
            M.centralizer(HEIS, g)
        with pytest.raises(InternalConsistencyError, match="conjugate"):
            M.conjugacy(HEIS, g, h)
    # The coset's tower, and the weight-1 letters that it covers.
    assert decisions._tower.cache_info().misses == 2


def test_centralizers_of_a_finite_group_build_one_graph_per_coset(
        monkeypatch):
    # The 243 elements of F(3,2)/<a1^3, a2^3> lie in 27 cosets of Gamma_3,
    # where the layer of weight 3, with 2 letters, is read, and in 9 cosets
    # of Gamma_2, where the layer of weight 2, with 1 letter, is: 36 graphs.
    graphs = []
    graph = decisions._graph

    def counted(*args):
        graphs.append(args[0].m)
        return graph(*args)

    monkeypatch.setattr(decisions, "_graph", counted)
    assert all(Z3_32.torsion.get(col) == 3 for col in range(1, Z3_32.m + 1))
    for coords in itertools.product(range(3), repeat=Z3_32.m):
        M.centralizer(Z3_32, M.element(Z3_32, coords))
    assert sorted(graphs) == [1] * 9 + [2] * 27


def test_layer_cache_is_bounded():
    # A centralizer in each of 200 distinct quotients F(2,2)/<a1^e, a2^e>
    # asks for the layers of 200 distinct presentations; the cache keeps at
    # most 128.
    basis = M.build_hall_basis(2, 2)
    for e in range(2, 202):
        pres = M.from_finite_presentation(basis, [((1, e),), ((2, e),)])
        M.centralizer(pres, M.element(pres, (1, 0, 0)))
    info = decisions._layer.cache_info()
    assert info.misses >= 200 and info.currsize <= 128


def test_tower_cache_is_bounded_and_holds_tuples():
    maxsize = decisions._tower.cache_info().maxsize
    assert maxsize is not None
    # The elements (i, 1, 0) lie in distinct cosets of Gamma_2, whose
    # letters start at the layer of weight 2, so each needs an entry of its
    # own and the cache evicts.
    top = decisions._layer(HEIS, HEIS.c)[0].start
    cosets = {(i, 1, 0)[:top] for i in range(maxsize + 8)}
    assert len(cosets) == maxsize + 8
    for i in range(maxsize + 8):
        M.centralizer(HEIS, M.element(HEIS, (i, 1, 0)))
    info = decisions._tower.cache_info()
    assert info.misses > maxsize and info.currsize <= maxsize
    g = M.element(HEIS, (1, 0, 2))
    gens = M.centralizer(HEIS, g)
    expected = list(gens)
    for level in (decisions._tower(HEIS, g.coords[:2]),
                  decisions._tower(HEIS, ())):
        assert type(level) is tuple
        assert all(type(part) is tuple for part in level)
        assert all(type(row) is tuple for part in level for row in part)
    # The caller owns the list it is given.
    gens.append(g)
    gens[0] = g
    assert M.centralizer(HEIS, g) == expected


def torsion_quotients():
    """The finite quotients whose relator rows do not commute by weight,
    `TORSION_QUOTIENTS` of tools/answer_digest.py, whose module is not
    imported, as it sets up paths for the benchmark: its constant
    expression is evaluated alone."""
    path = pathlib.Path(__file__).resolve().parent.parent / "tools"
    tree = ast.parse((path / "answer_digest.py").read_text())
    node = next(node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", "") == "TORSION_QUOTIENTS")
    value = eval(compile(ast.Expression(node), path.name, "eval"),
                 {"__builtins__": {}})
    return [M.from_finite_presentation(M.build_hall_basis(c, r), relators)
            for (c, r), relators in value]


def check_against_the_oracle(pres, rng, count, bound):
    """Centralizers equal those of the descent through the quotients
    G/Gamma_k (`conftest.oracle_centralizer`), conjugacy verdicts equal its
    verdicts, and every witness conjugates h to g."""
    for _ in range(count):
        g, u = (M.element(pres, [rng.randint(-bound, bound)
                                 for _ in range(pres.m)]) for _ in range(2))
        assert ([z.coords for z in M.centralizer(pres, g)]
                == oracle_centralizer(pres, g.coords))
        h = M.mult(M.mult(u, g), M.inverse(u))
        # The last letter is central; a1 changes the image in G/Gamma_2.
        last = M.element(pres, (0,) * (pres.m - 1) + (1,))
        a1 = M.element(pres, (1,) + (0,) * (pres.m - 1))
        for x in (h, M.mult(h, last), M.mult(a1, g)):
            w = M.conjugacy(pres, g, x).witness
            oracle = oracle_conjugator(pres, g.coords, x.coords)
            assert (w is None) == (oracle is None)
            assert w is None or M.mult(M.mult(M.inverse(w), x), w) == g
        assert M.conjugacy(pres, g, h).conjugate


@pytest.mark.parametrize("c, r", [(2, 2), (3, 2), (3, 3), (4, 2), (5, 2),
                                  (4, 3), (5, 3), (4, 4), (3, 6), (8, 2)])
def test_descent_by_layers_equals_the_descent_through_quotients(c, r):
    # The full form of C_G(g) is unique, so the two descents give the same
    # rows.  The (8,2) oracle takes about a second per coset.
    check_against_the_oracle(M.free_presentation(c, r), random.Random(c * r),
                             1 if c == 8 else 3, 3)


def test_descent_by_layers_equals_the_oracle_on_finite_quotients():
    rng = random.Random(65)
    for c, r in ((2, 2), (3, 2), (2, 3), (3, 3)):
        pres = random_finite_presentation(rng, c, r, max_pivot=3)
        check_against_the_oracle(pres, rng, 4, 6)
    # 32-bit entries, which the quotients reduce, as in the digest.
    for pres in torsion_quotients():
        check_against_the_oracle(pres, rng, 2, 1 << 32)


def test_four_centralizers_at_5_3_make_few_compiled_calls():
    # Counted in a fresh process, so that every table call is seen: the
    # descent through G/Gamma_c made 23,144 calls to the tables of (5,3) and
    # of its quotients, and the descent by layers makes about 2,600, all in
    # G, as its layers and Z^s add with no table.
    code = ("import random\n"
            "from malcev import freegroup\n"
            "calls, polynomials = [], freegroup._polynomials\n"
            "def counted(basis, kind):\n"
            "    f = polynomials(basis, kind)\n"
            "    return lambda *args: calls.append(1) or f(*args)\n"
            "freegroup._polynomials = counted\n"
            "import malcev as M\n"
            "pres, rng = M.free_presentation(5, 3), random.Random(5)\n"
            "for _ in range(4):\n"
            "    g = [rng.randint(-3, 3) for _ in range(pres.m)]\n"
            "    M.centralizer(pres, M.element(pres, g))\n"
            "print(len(calls))\n")
    src = pathlib.Path(M.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert int(out.stdout) <= 5000


# ---------------------------------------------------------------------------
# The power problem.

def test_power_problem_fixtures():
    g = M.element(HEIS, (1, 1, 0))
    assert M.power_problem(HEIS, g, M.element(HEIS, (3, 3, 3))) == 3
    assert M.power_problem(HEIS, g, M.power(g, 1000)) == 1000
    assert M.power_problem(HEIS, g, M.power(g, -4)) == -4
    with pytest.raises(M.NoPower):
        M.power_problem(HEIS, g, M.element(HEIS, (0, 0, 1)))
    with pytest.raises(M.NoPower):
        M.power_problem(HEIS, M.identity(HEIS), g)
    assert M.power_problem(HEIS, M.identity(HEIS), M.identity(HEIS)) == 0


def test_power_problem_progressions_and_torsion():
    b = M.build_hall_basis(1, 1)
    pres = M.make_quotient_presentation(b, ((5,),))
    g = M.element(pres, (1,))
    h = M.element(pres, (2,))
    assert M.power_problem(pres, g, h) == 2
    # k = 2 mod 5 intersected with 1 + 3Z gives 7 mod 15
    assert M.power_problem(pres, g, h, progression=(1, 3)) == 7
    with pytest.raises(M.NoPower):
        M.power_problem(pres, g, h, progression=(0, 5))
    with pytest.raises(M.RejectedInput):
        M.power_problem(pres, g, h, progression=(0, 0))


def test_power_problem_matches_brute_force():
    rng = random.Random(71)
    for _ in range(3):
        pres = random_finite_presentation(rng, 2, 2)
        bound = M.torsion_bound(pres)
        fg = FiniteGroup(pres)
        for _ in range(15):
            g = M.element(pres, rng.choice(fg.elements))
            h = M.element(pres, rng.choice(fg.elements))
            solutions = [k for k in range(bound) if M.power(g, k) == h]
            try:
                k = M.power_problem(pres, g, h)
            except M.NoPower:
                assert not solutions
                continue
            assert solutions and k == solutions[0]
            assert M.power(g, k) == h


def test_power_problem_makes_one_descent(monkeypatch):
    # The search finds every solution k + nZ, so the answer needs no second
    # walk over g's pivots to learn the order n.
    def no_order(g):
        raise AssertionError("power_problem called element_order")

    monkeypatch.setattr(decisions, "element_order", no_order)
    z5 = M.make_quotient_presentation(M.build_hall_basis(1, 1), ((5,),))
    g5 = M.element(z5, (1,))
    assert M.power_problem(z5, g5, M.element(z5, (2,))) == 2
    assert M.power_problem(z5, g5, M.element(z5, (2,)), (1, 3)) == 7
    g = M.element(HEIS, (1, 1, 0))
    assert M.power_problem(HEIS, g, M.power(g, -4)) == -4
    assert M.power_problem(HEIS, g, M.power(g, -4), (2, 3)) == -4
    with pytest.raises(M.NoPower):
        M.power_problem(HEIS, g, M.power(g, -4), (0, 3))
    # An unrestricted search starts from g itself, with no pow(g, 1).
    pow_, exponents = HEIS.pow, []
    monkeypatch.setattr(HEIS, "pow",
                        lambda u, e: exponents.append(e) or pow_(u, e))
    h = M.element(HEIS, pow_(g.coords, -4))
    assert M.power_problem(HEIS, g, h) == -4
    assert exponents and 1 not in exponents


def progression_solutions(fg, g, h, alpha, beta):
    """Every k in [0, lcm(order, beta)) with k in alpha + beta*Z and
    g^k = h, from the powers of g by repeated multiplication."""
    powers = [fg.pres.identity]
    while (p := fg.mult(powers[-1], g)) != powers[0]:
        powers.append(p)
    period = math.lcm(len(powers), beta)
    return [k for k in range(alpha % beta, period, beta)
            if powers[k % len(powers)] == h]


def class_3_presentation(rng):
    """A random finite quotient of F(3,2) with a nontrivial weight-3
    column, so that it has class 3."""
    while True:
        pres = random_finite_presentation(rng, 3, 2)
        if any(e > 1 for i, e in pres.torsion.items() if pres.weights[i] == 3):
            return pres


def test_power_problem_progressions_match_brute_force():
    rng = random.Random(73)
    # At class 3 the narrowing recurses through several torsion columns for
    # g that does not commute; half of those h are powers of g.
    for c, draws in ((2, 3), (3, 8)):
        for _ in range(draws):
            pres = (random_finite_presentation(rng, 2, 2) if c == 2
                    else class_3_presentation(rng))
            fg = FiniteGroup(pres)
            for _ in range(15):
                g = M.element(pres, rng.choice(fg.elements))
                if c == 3 and rng.random() < 0.5:
                    h = M.power(g, rng.randint(-40, 40))
                else:
                    h = M.element(pres, rng.choice(fg.elements))
                alpha, beta = rng.randint(-9, 9), rng.randint(1, 6)
                solutions = progression_solutions(fg, g.coords, h.coords,
                                                  alpha, beta)
                try:
                    k = M.power_problem(pres, g, h, (alpha, beta))
                except M.NoPower:
                    assert not solutions
                    continue
                assert solutions and k == solutions[0]
    # Infinite order: the one solution k either lies in the progression or
    # there is no answer.
    g = M.element(HEIS, (2, -1, 3))
    for k in (-7, 0, 5, 12):
        h = M.power(g, k)
        for alpha, beta in ((k, 1), (k + 4, 4), (k - 9, 3), (k + 1, 2),
                            (k + 2, 5)):
            if (k - alpha) % beta:
                with pytest.raises(M.NoPower):
                    M.power_problem(HEIS, g, h, (alpha, beta))
            else:
                assert M.power_problem(HEIS, g, h, (alpha, beta)) == k


@pytest.mark.parametrize("progression", [(1, 2, 3), (0,), 5],
                         ids=["triple", "single", "int"])
def test_progression_must_be_a_pair(progression):
    g = M.element(HEIS, (1, 1, 0))
    with pytest.raises(M.RejectedInput, match="pair of integers"):
        M.power_problem(HEIS, g, g, progression)


def test_corrupt_witnesses_raise(monkeypatch):
    # Each step's x, and each generator of the tower, is shifted by a2.
    power_product = decisions._power_product

    def shifted(*args):
        return HEIS.mult(power_product(*args), (0, 1, 0))

    monkeypatch.setattr(decisions, "_power_product", shifted)
    with pytest.raises(InternalConsistencyError):
        M.conjugacy(HEIS, M.element(HEIS, (1, 0, 2)), M.element(HEIS, (1, 0, 0)))

    search = decisions._power_search
    g = M.element(HEIS, (1, 1, 0))
    monkeypatch.setattr(decisions, "_power_search",
                        lambda *a: (search(*a)[0] + 1, search(*a)[1]))
    with pytest.raises(InternalConsistencyError, match="g\\^k != h"):
        M.power_problem(HEIS, g, M.power(g, 3))
    monkeypatch.setattr(decisions, "_power_search", search)

    # The top-level search's k shifted by 5 is 12, which gives g^k = h in
    # Z/5 but lies outside the progression 1 + 3Z; the recursive calls it
    # makes are the unpatched search.
    pres = M.make_quotient_presentation(M.build_hall_basis(1, 1), ((5,),))

    def shifted_top(*args):
        monkeypatch.setattr(decisions, "_power_search", search)
        k, n = search(*args)
        return k + 5, n

    monkeypatch.setattr(decisions, "_power_search", shifted_top)
    with pytest.raises(InternalConsistencyError, match="progression"):
        M.power_problem(pres, M.element(pres, (1,)), M.element(pres, (2,)),
                        progression=(1, 3))


def test_power_search_outside_the_suffix_raises(monkeypatch):
    # In Z/5 the search narrows g = a1 by its column to (g^5, g^-2 h) with
    # column 1 done; a pow that gives g^5 a nonzero first entry is caught.
    pres = M.make_quotient_presentation(M.build_hall_basis(1, 1), ((5,),))
    pow_ = pres.pow
    monkeypatch.setattr(pres, "pow",
                        lambda u, e: (1,) if e == 5 else pow_(u, e))
    with pytest.raises(InternalConsistencyError, match="suffix subgroup"):
        M.power_problem(pres, M.element(pres, (1,)), M.element(pres, (2,)))


def test_corrupt_preimage_raises(monkeypatch):
    # A preimage whose image half is not h is caught by the membership
    # check the kernel shares.
    scan = subgroups._membership_scan
    monkeypatch.setattr(subgroups, "_membership_scan",
                        lambda *a: [scan(*a)[0] + 1] + scan(*a)[1:])
    gens = tuple(letter_elements(HEIS))
    with pytest.raises(InternalConsistencyError, match="does not give h"):
        M.kernel_and_preimage(M.HomSpec(HEIS, HEIS, gens, gens),
                              M.element(HEIS, (2, -1, 3)))


def test_corrupt_centralizer_raises(monkeypatch):
    # The one kernel of the descent at class 2 gains (0, 1, 0), which does
    # not commute with g = (1, 0, 0).
    graph = decisions._graph

    def extra_generator(*args):
        kernel, *halves = graph(*args)
        return (kernel + ((0, 1, 0),), *halves)

    monkeypatch.setattr(decisions, "_graph", extra_generator)
    with pytest.raises(InternalConsistencyError, match="commute"):
        M.centralizer(HEIS, M.element(HEIS, (1, 0, 0)))


@pytest.mark.parametrize("c, rows, expected", [
    (1, ["1 0"], ["0 0", "0 1"]),
    (2, ["1 0 0", "0 0 1"], ["0 1 0"]),
    (3, ["1 0 0 0 0", "0 0 1 0 0", "0 0 0 1 0", "0 0 0 0 1"],
     ["0 1 0 0 0"]),
])
def test_centralizer_with_trivial_weight_c_letters(c, rows, expected):
    # Relators with pivot 1 at weight-c columns: the descent reduces the
    # weight-c letters, so a trivial one enters its cover as the identity.
    text = f"group c={c} r=2\n" + "".join(f"row {r}\n" for r in rows)
    block = parse_document(text + "word a2\n")[0]
    g = M.normal_form(block.presentation, block.words[0])
    gens = M.centralizer(block.presentation, g)
    assert [" ".join(map(str, z.coords)) for z in gens] == expected


def test_decision_inputs_must_share_presentation():
    other = M.free_presentation(1, 2)
    with pytest.raises(M.RejectedInput):
        M.centralizer(HEIS, M.identity(other))
    with pytest.raises(M.RejectedInput):
        M.conjugacy(HEIS, M.identity(HEIS), M.identity(other))
    with pytest.raises(M.RejectedInput):
        M.power_problem(HEIS, M.identity(other), M.identity(HEIS))


# ---------------------------------------------------------------------------
# Brute force at rank 3 and class 4.

@pytest.mark.parametrize("c, r, p, order", [(4, 2, 3, 2187), (2, 3, 3, 729),
                                            (3, 3, 2, 2048)])
def test_decisions_match_brute_force_at_rank_3_and_class_4(c, r, p, order):
    # F(c,r)/<a_1^p, ..., a_r^p>: three weight-1 columns, or a fourth layer,
    # which no rank-2 quotient of class 2 or 3 has, each with torsion at
    # the top weight.
    pres = M.from_finite_presentation(M.build_hall_basis(c, r),
                                      [((k, p),) for k in range(1, r + 1)])
    fg = FiniteGroup(pres)
    assert fg.order == order
    assert any(e > 1 for i, e in pres.torsion.items() if pres.weights[i] == c)
    rng = random.Random(order)

    def draw():
        return M.element(pres, rng.choice(fg.elements))

    # <z, [x, y]> is a proper subgroup: its image in G/Gamma_2 is cyclic.
    x, y, z = draw(), draw(), draw()
    rows = [z.coords,
            M.mult(M.mult(M.inverse(x), M.inverse(y)), M.mult(x, y)).coords]
    form, _ = M.full_form(pres, M.coordinate_matrix(pres, rows))
    closure = fg.subgroup_closure(rows)
    members = sorted(closure)
    for _ in range(8):
        g, u = draw(), draw()
        for v in (draw(), M.element(pres, rng.choice(members))):
            assert (M.membership(pres, form, v) is None) == (
                v.coords not in closure)
        gens = M.centralizer(pres, g)
        assert fg.subgroup_closure([k.coords for k in gens]) == \
            fg.centralizer_brute(g.coords)
        for h in (M.mult(M.mult(u, g), M.inverse(u)), draw()):
            w = M.conjugacy(pres, g, h).witness
            assert (w is None) == (fg.conjugator_brute(g.coords, h.coords)
                                   is None)
            assert w is None or M.mult(M.mult(M.inverse(w), h), w) == g
        assert M.element_order(g) == fg.element_order_brute(g.coords)
        for h in (M.power(g, rng.randint(-40, 40)), draw()):
            solutions = progression_solutions(fg, g.coords, h.coords, 0, 1)
            try:
                assert M.power_problem(pres, g, h) == solutions[0]
            except M.NoPower:
                assert not solutions
    # A kernel from F(c,r) into the quotient: its full form has one row per
    # column, and the product of their pivots is the index, |image|.
    src = M.free_presentation(c, r)
    images = hom_image_of_letters(src.basis, [draw() for _ in range(r)])
    kernel, pre = M.kernel_and_preimage(M.HomSpec(
        src, pres, tuple(letter_elements(src)), tuple(images)), images[0])
    assert all(hom_apply(images, k.coords).is_identity() for k in kernel)
    assert hom_apply(images, pre.coords) == images[0]
    image = fg.subgroup_closure([im.coords for im in images[:r]])
    assert len(kernel) == src.m
    assert math.prod(k.coords[first_nonzero(k.coords) - 1]
                     for k in kernel) == len(image)
