import random

import pytest

import malcev as M
from conftest import FiniteGroup, random_finite_presentation
from malcev import collect
from malcev.freegroup import SizeCapExceeded
from malcev.presentations import check_echelon_conditions
from malcev.subgroups import full_form_free, full_form_rows


HEIS = M.free_presentation(2, 2)


def ff(pres, rows, track=False):
    return M.full_form(pres, M.coordinate_matrix(pres, rows), track=track)


# ---------------------------------------------------------------------------
# Fixtures.

def test_full_form_fixtures():
    z2 = M.free_presentation(1, 2)
    assert ff(z2, [(2, 0), (0, 3), (1, 1)])[0].rows == ((1, 0), (0, 1))
    assert ff(HEIS, [(2, 0, 0), (0, 1, 0)])[0].rows == (
        (2, 0, 0), (0, 1, 0), (0, 0, 2))
    assert ff(HEIS, [(-1, -1, 1)])[0].rows == ((1, 1, 0),)
    assert ff(HEIS, [])[0].rows == ()


def test_full_form_output_is_valid(subtests=None):
    rng = random.Random(12)
    cases = []
    for _ in range(30):
        pres = (random_finite_presentation(rng, 2, 2)
                if rng.random() < 0.5 else HEIS)
        cases.append((pres, rng.randint(1, 5)))
    # Infinite ambient groups beyond the Heisenberg group.
    for c, r in ((2, 3), (3, 3)):
        cases += [(M.free_presentation(c, r), n) for n in (1, 2, 3)]
    for pres, n in cases:
        rows = [tuple(rng.randint(-9, 9) for _ in range(pres.m))
                for _ in range(n)]
        form, _ = ff(pres, rows)
        check_echelon_conditions(form.rows, pres.torsion)
        # closure (vi) via membership of the conjugates
        for k in range(len(form.rows)):
            tail = M.FullFormMatrix(form.rows[k + 1:])
            hk = M.element(pres, form.rows[k])
            for j in range(k + 1, len(form.rows)):
                hj = M.element(pres, form.rows[j])
                for conj in (M.mult(M.mult(M.inverse(hk), hj), hk),
                             M.mult(M.mult(hk, hj), M.inverse(hk))):
                    assert M.membership(pres, tail, conj) is not None


class CountingContext:
    """A presentation whose group operations raise after `budget` calls."""

    def __init__(self, pres, budget):
        self.pres, self.budget, self.calls = pres, budget, 0
        self.m, self.torsion, self.identity = pres.m, pres.torsion, pres.identity

    def _count(self):
        self.calls += 1
        if self.calls > self.budget:
            raise RuntimeError(f"more than {self.budget} group operations")

    def mult(self, u, v):
        self._count()
        return self.pres.mult(u, v)

    def pow(self, u, e):
        self._count()
        return self.pres.pow(u, e)


@pytest.mark.parametrize("c,r", [(3, 3), (5, 2)])
def test_full_form_work_stays_small(c, r):
    # Three small rows generate a subgroup of finite index.  With one working
    # row per pivot this takes about a thousand group operations; a working
    # set that keeps every conjugate of every row grows past the budget.
    pres = M.free_presentation(c, r)
    rng = random.Random(5)
    rows = [tuple(rng.randint(-9, 9) for _ in range(pres.m))
            for _ in range(3)]
    ctx = CountingContext(pres, 20_000)
    out, _ = full_form_rows(ctx, rows)
    assert out == M.full_form(pres, M.coordinate_matrix(pres, rows))[0].rows
    assert len(out) == pres.m


def test_row_operations_preserve_full_form():
    rng = random.Random(21)
    pick = random.Random(22)
    ops_seen = set()
    expressed = 0
    for trial in range(40):
        pres = (random_finite_presentation(rng, rng.choice([1, 2]), 2)
                if rng.random() < 0.5 else M.free_presentation(
                    rng.choice([1, 2]), 2))
        rows = [tuple(rng.randint(-9, 9) for _ in range(pres.m))
                for _ in range(rng.randint(1, 4))]
        mat = M.coordinate_matrix(pres, rows, track=True)
        reference, _ = M.full_form(pres, mat)
        for _ in range(10):
            n = len(mat.rows)
            candidates = [("add_trivial",)]
            if pres.torsion:
                candidates.append(
                    ("add_relator", rng.choice(sorted(pres.torsion))))
            if n:
                i = rng.randint(1, n)
                j = rng.randint(1, n)
                candidates += [("swap", i, j), ("invert", i),
                               ("append_product",
                                tuple((rng.randint(1, n), rng.randint(-3, 3))
                                      for _ in range(rng.randint(1, 3))))]
                if n > 1 and i != j:
                    candidates.append(("combine", i, j, rng.randint(-4, 4)))
            op = rng.choice(candidates)
            ops_seen.add(op[0])
            mat = M.apply_row_operation(mat, op)
        result, tracked = M.full_form(pres, mat, track=True)
        assert result == reference
        # The derivations survive the row operations: words are over the
        # rows the matrix was created with.
        originals = [M.element(pres, row) for row in rows]
        for _ in range(3):
            h = M.identity(pres)
            for row in result.rows:
                h = M.mult(h, M.power(M.element(pres, row),
                                      pick.randint(-3, 3)))
            try:
                word = M.express_in_original_generators(
                    tracked, M.membership(pres, result, h), cap=1 << 14)
            except SizeCapExceeded:
                continue  # too long to evaluate letter by letter
            expressed += 1
            acc = M.identity(pres)
            for sym, e in word:
                acc = M.mult(acc, M.power(originals[sym - 1], e))
            assert acc == h
    assert {"swap", "combine", "add_trivial", "invert",
            "append_product"} <= ops_seen
    assert expressed >= 100


def test_long_row_operation_chain_stays_expressible():
    z2 = M.free_presentation(1, 2)
    mat = M.coordinate_matrix(z2, [(1, 0), (0, 1)], track=True)
    for k in range(3000):
        mat = M.apply_row_operation(mat, ("combine", 1, 2, (-1) ** k))
    form, tracked = M.full_form(z2, mat, track=True)
    h = M.element(z2, (3, 5))
    word = M.express_in_original_generators(
        tracked, M.membership(z2, form, h))
    assert word == ((1, 3), (2, 5))


def test_row_operation_errors():
    mat = M.coordinate_matrix(HEIS, [(1, 0, 0)])
    with pytest.raises(M.RejectedInput):
        M.apply_row_operation(mat, ("swap", 1, 2))
    with pytest.raises(M.RejectedInput):
        M.apply_row_operation(mat, ("remove", 1))  # not trivial
    with pytest.raises(M.RejectedInput):
        M.apply_row_operation(mat, ("add_relator", 1))  # free group
    with pytest.raises(M.RejectedInput):
        M.apply_row_operation(mat, ("frobnicate", 1))


def test_row_operation_examples():
    mat = M.coordinate_matrix(HEIS, [(1, 0, 0), (0, 1, 0)])
    twice = M.apply_row_operation(
        M.apply_row_operation(mat, ("swap", 1, 2)), ("swap", 1, 2))
    assert twice.rows == mat.rows
    mat = M.coordinate_matrix(HEIS, [(1, 1, 0)])
    assert M.apply_row_operation(mat, ("invert", 1)).rows[0] == (-1, -1, 1)
    mat = M.coordinate_matrix(HEIS, [(2, 0, 0)])
    grown = M.apply_row_operation(
        mat, ("append_product", ((1, 1), (1, -1))))
    assert grown.rows[-1] == (0, 0, 0)
    assert M.apply_row_operation(grown, ("remove", 2)).rows == mat.rows


# ---------------------------------------------------------------------------
# Membership.

def test_membership_fixtures():
    form = M.FullFormMatrix(((2, 0, 0), (0, 1, 0), (0, 0, 2)))
    assert M.membership(HEIS, form, M.identity(HEIS)).gamma == (0, 0, 0)
    assert M.membership(HEIS, form, M.element(HEIS, (0, 0, 1))) is None
    w = M.membership(HEIS, form, M.element(HEIS, (2, 1, 2)))
    assert w.gamma == (1, 1, 1)


def test_membership_against_exhaustive_enumeration():
    rng = random.Random(31)
    pres = random_finite_presentation(rng, 2, 2)
    fg = FiniteGroup(pres)
    for _ in range(6):
        gens = [rng.choice(fg.elements) for _ in range(rng.randint(1, 3))]
        closure = fg.subgroup_closure(gens)
        form, tracked = ff(pres, gens, track=True)
        for _ in range(60):
            q = rng.choice(fg.elements)
            w = M.membership(pres, form, M.element(pres, q))
            assert (w is not None) == (q in closure)
            if w is None:
                continue
            acc = M.identity(pres)
            for row, gamma in zip(form.rows, w.gamma):
                acc = M.mult(acc, M.power(M.element(pres, row), gamma))
            assert acc.coords == q
            word = M.express_in_original_generators(tracked, w)
            acc = M.identity(pres)
            for sym, e in word:
                acc = M.mult(acc, M.power(M.element(pres, gens[sym - 1]), e))
            assert acc.coords == q


def test_membership_gamma_ranges_at_torsion_pivots():
    rng = random.Random(33)
    pres = random_finite_presentation(rng, 2, 2)
    fg = FiniteGroup(pres)
    gens = [rng.choice(fg.elements) for _ in range(2)]
    form, _ = ff(pres, gens)
    for q in list(fg.subgroup_closure(gens))[:40]:
        w = M.membership(pres, form, M.element(pres, q))
        for row, gamma in zip(form.rows, w.gamma):
            piv = next(i for i, v in enumerate(row) if v)
            e = pres.torsion.get(piv + 1)
            if e is not None:
                assert 0 <= gamma < e // row[piv]


def test_expression_cap():
    form, tracked = ff(HEIS, [(2, 0, 0), (0, 1, 0)], track=True)
    w = M.membership(HEIS, form, M.element(HEIS, (0, 0, 2)))
    assert w is not None
    with pytest.raises(SizeCapExceeded):
        M.express_in_original_generators(tracked, w, cap=2)


def test_express_requires_tracking():
    with pytest.raises(M.RejectedInput):
        M.express_in_original_generators(None, M.MembershipWitness((0,)))


# ---------------------------------------------------------------------------
# Subgroup presentations.

def von_dyck_holds(pres, form_rows, npres):
    gens = [M.element(pres, row) for row in form_rows]

    def tail_value(vec):
        acc = M.identity(pres)
        for g, e in zip(gens, vec):
            if e:
                acc = M.mult(acc, M.power(g, e))
        return acc

    for i, e in enumerate(npres.orders, start=1):
        if e is None:
            continue
        lhs = M.power(gens[i - 1], e)
        if lhs != tail_value(npres.power_tails.get(i, (0,) * npres.s)):
            return False
    for (i, j), tail in npres.alpha.items():
        lhs = M.mult(gens[j - 1], gens[i - 1])
        rhs = M.mult(M.mult(gens[i - 1], gens[j - 1]), tail_value(tail))
        if lhs != rhs:
            return False
    for (i, j), tail in npres.beta.items():
        gj_inv = M.inverse(gens[j - 1])
        lhs = M.mult(gj_inv, gens[i - 1])
        rhs = M.mult(M.mult(gens[i - 1], gj_inv), tail_value(tail))
        if lhs != rhs:
            return False
    return True


def test_subgroup_presentation_heisenberg_fixture():
    npres = M.subgroup_presentation(
        HEIS, M.coordinate_matrix(HEIS, [(2, 0, 0), (0, 1, 0)]))
    assert npres.s == 3
    assert npres.orders == (None, None, None)
    assert npres.alpha[(1, 2)] == (0, 0, 1)  # [g2, g1] = g3 with g3 = a3^2
    form = full_form_free(HEIS.basis, [(2, 0, 0), (0, 1, 0)])
    assert von_dyck_holds(HEIS, form, npres)
    assert M.nilpotent_presentation_consistent(npres)


def test_subgroup_presentation_whole_group_and_torsion():
    rng = random.Random(41)
    pres = random_finite_presentation(rng, 2, 2)
    rows = [tuple(int(i == j) for i in range(pres.m)) for j in range(pres.m)]
    form, _ = ff(pres, rows)
    npres = M.subgroup_presentation(pres, M.coordinate_matrix(pres, rows))
    # one polycyclic generator per full-form row; each relative order is
    # the ambient order at the pivot divided by the pivot entry
    assert npres.s == len(form.rows)
    for k, row in enumerate(form.rows, start=1):
        piv = next(i for i, v in enumerate(row) if v)
        e = pres.torsion.get(piv + 1)
        expected = None if e is None else e // row[piv]
        assert npres.orders[k - 1] == expected
    assert von_dyck_holds(pres, form.rows, npres)
    assert M.nilpotent_presentation_consistent(npres)


def test_subgroup_presentation_budget_raises_instead_of_false(monkeypatch):
    npres = M.subgroup_presentation(
        HEIS, M.coordinate_matrix(HEIS, [(2, 0, 0), (0, 1, 0)]))
    assert M.nilpotent_presentation_consistent(npres)
    monkeypatch.setattr(collect, "DEFAULT_STEP_CAP", 1)
    with pytest.raises(collect.CollectionLimit):
        M.nilpotent_presentation_consistent(npres)


def test_subgroup_presentation_mixed_order_generator():
    # Z/2 x Z, H = <(1, 1)> = {(k mod 2, k)} is infinite cyclic, but its
    # full form is {(1, 1), (0, 2)}: the closure conditions force the
    # torsion-power row g1^2 = (0, 2).  The polycyclic sequence therefore
    # has two generators with g1 of relative order 2 and g1^2 = g2.
    b = M.build_hall_basis(1, 2)
    pres = M.make_quotient_presentation(b, ((2, 0),))
    npres = M.subgroup_presentation(
        pres, M.coordinate_matrix(pres, [(1, 1)]))
    assert npres.s == 2
    assert npres.orders == (2, None)
    assert npres.power_tails[1] == (0, 1)
    form, _ = ff(pres, [(1, 1)])
    assert form.rows == ((1, 1), (0, 2))
    assert von_dyck_holds(pres, form.rows, npres)
    assert M.nilpotent_presentation_consistent(npres)
