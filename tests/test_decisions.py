import random

import pytest

import malcev as M
from conftest import (FiniteGroup, hom_apply, hom_image_of_letters,
                      random_finite_presentation)
from malcev import decisions, subgroups
from malcev.extgcd import InternalConsistencyError
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
    # The descent's kernels sift graph rows in ProductContext, whose H
    # columns weigh 1 and whose G columns keep their weights; the closure
    # skips the pairs that commute by weight.  Closing every pair takes 95
    # operations on this input, skipping them 60.
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
    classes = []
    kernel = decisions._kernel

    def counted(target, source, *args):
        classes.append(source.basis.c)
        return kernel(target, source, *args)

    monkeypatch.setattr(decisions, "_kernel", counted)
    rng = random.Random(64 + c)
    pres = M.free_presentation(c, 2)
    g, u = (M.element(pres, tuple(rng.randint(-3, 3) for _ in range(pres.m)))
            for _ in range(2))
    h = M.mult(M.mult(u, g), M.inverse(u))
    w = M.conjugacy(pres, g, h).witness
    assert M.mult(M.mult(M.inverse(w), h), w) == g
    assert sorted(classes) == list(range(2, c + 1))
    classes.clear()
    M.centralizer(pres, g)
    assert sorted(classes) == list(range(2, c + 1))


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


def test_power_problem_progressions_match_brute_force():
    rng = random.Random(73)
    for _ in range(3):
        pres = random_finite_presentation(rng, 2, 2)
        bound = M.torsion_bound(pres)
        fg = FiniteGroup(pres)
        for _ in range(15):
            g = M.element(pres, rng.choice(fg.elements))
            h = M.element(pres, rng.choice(fg.elements))
            alpha, beta = rng.randint(-9, 9), rng.randint(1, 6)
            # Every solution lies below lcm(order, beta) <= bound * beta.
            solutions = [k for k in range(bound * beta)
                         if (k - alpha) % beta == 0 and M.power(g, k) == h]
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


def test_merge_progressions_with_a_single_value():
    # Step 0 means the single value r1, as the power search reports for g
    # of infinite order.
    assert decisions._merge_progressions(-4, 0, 2, 3) == (-4, 0)
    assert decisions._merge_progressions(-4, 0, 0, 3) is None
    assert decisions._merge_progressions(7, 0, 0, 1) == (7, 0)
    assert decisions._merge_progressions(2, 5, 1, 3) == (7, 15)


def test_corrupt_witnesses_raise(monkeypatch):
    kernel = decisions._kernel

    def shifted_preimage(*args):
        gens, w = kernel(*args)
        return gens, HEIS.mult(w, (0, 1, 0))

    monkeypatch.setattr(decisions, "_kernel", shifted_preimage)
    with pytest.raises(InternalConsistencyError):
        M.conjugacy(HEIS, M.element(HEIS, (1, 0, 2)), M.element(HEIS, (1, 0, 0)))

    search = decisions._power_search
    g = M.element(HEIS, (1, 1, 0))
    monkeypatch.setattr(decisions, "_power_search",
                        lambda *a: (search(*a)[0] + 1, search(*a)[1]))
    with pytest.raises(InternalConsistencyError, match="g\\^k != h"):
        M.power_problem(HEIS, g, M.power(g, 3))
    monkeypatch.setattr(decisions, "_power_search", search)

    # k = 12 gives g^k = h in Z/5 but lies outside the progression 1 + 3Z.
    merge = decisions._merge_progressions
    pres = M.make_quotient_presentation(M.build_hall_basis(1, 1), ((5,),))
    monkeypatch.setattr(decisions, "_merge_progressions",
                        lambda *a: (merge(*a)[0] + 5, merge(*a)[1]))
    with pytest.raises(InternalConsistencyError, match="progression"):
        M.power_problem(pres, M.element(pres, (1,)), M.element(pres, (2,)),
                        progression=(1, 3))


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
    kernel = decisions._kernel

    def extra_generator(*args):
        gens, w = kernel(*args)
        return gens + [(0, 1, 0)], w

    monkeypatch.setattr(decisions, "_kernel", extra_generator)
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
    block = parse_document(text + "word a2\n").groups[0]
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
