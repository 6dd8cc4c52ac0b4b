import collections
import itertools
import random

import pytest

import conftest
import malcev as M
from conftest import (FiniteGroup, apply_row_operation,
                      nilpotent_presentation_consistent, normal_closure_rows,
                      random_finite_presentation)
from malcev import decisions, subgroups
from malcev.extgcd import InternalConsistencyError
from malcev.freegroup import SizeCapExceeded, commute_by_weight
from malcev.presentations import check_echelon_conditions, first_nonzero
from malcev.subgroups import expand_expression, full_form_rows


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
        self.m, self.torsion = pres.m, pres.torsion
        self.c, self.weights = pres.c, pres.weights

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
    # row per pivot this takes a few hundred group operations; a working set
    # that keeps every conjugate of every row grows past the budget.
    pres = M.free_presentation(c, r)
    rng = random.Random(5)
    rows = [tuple(rng.randint(-9, 9) for _ in range(pres.m))
            for _ in range(3)]
    ctx = CountingContext(pres, 20_000)
    out, _ = full_form_rows(ctx, rows)
    assert out == M.full_form(pres, M.coordinate_matrix(pres, rows))[0].rows
    assert len(out) == pres.m


def test_full_form_skips_pairs_that_commute_by_weight():
    # At (5,3) only 117 of the 3,160 pairs of pivots have weights summing to
    # at most the class.  Closing every pair of this input takes 26,299
    # group operations; skipping the pairs that commute by weight, 11,084.
    pres = M.free_presentation(5, 3)
    rng = random.Random(7)
    rows = [tuple(rng.randint(-9, 9) for _ in range(pres.m))
            for _ in range(3)]
    ctx = CountingContext(pres, 26_299 // 2)
    out, _ = full_form_rows(ctx, rows)
    assert len(out) == pres.m
    form = M.FullFormMatrix(out)
    for row in rows:
        assert M.membership(pres, form, M.element(pres, row)) is not None


def _quotient(c, relators):
    return M.from_finite_presentation(M.build_hall_basis(c, 2), relators)


# The four finite quotients of the benchmark's finite_decisions workload.
COMMUTATOR_SQUARED = ((2, -1), (1, -1), (2, 1), (1, 1)) * 2
FINITE_QUOTIENTS = [
    _quotient(2, [((1, 3),), ((2, 3),)]),
    _quotient(2, [((1, 4),), ((2, 4),), COMMUTATOR_SQUARED]),
    _quotient(3, [((1, 2),), ((2, 2),)]),
    _quotient(3, [((1, 3),), ((2, 3),)]),
]
SKIP_CONTEXTS = [M.free_presentation(c, r) for c, r in ((2, 2), (3, 2), (3, 3))]
SKIP_CONTEXTS += FINITE_QUOTIENTS
SKIP_CONTEXTS.append(subgroups.ProductContext(FINITE_QUOTIENTS[3], HEIS))


def first_full_column(ctx, form):
    """The first column from which on every column has a row of the full
    form that leads with 1, or has relative order 1 (m + 1 if none)."""
    leads = {p: row[p - 1] for row in form
             for p in [first_nonzero(row)]}
    full = ctx.m + 1
    while full > 1 and 1 in (ctx.torsion.get(full - 1), leads.get(full - 1)):
        full -= 1
    return full


@pytest.mark.parametrize("ctx", SKIP_CONTEXTS,
                         ids=lambda ctx: f"m{ctx.m}t{len(ctx.torsion)}")
def test_elements_past_the_full_column_sift_away(ctx):
    # The lemma of the closure's second skip: a reduced element whose pivot
    # is at or after the first column from which on every row leads with 1
    # scans into the full form, and sifting it changes nothing.
    rng = random.Random(ctx.m * 31 + len(ctx.torsion))
    units = [tuple(int(j == i) for j in range(ctx.m)) for i in range(ctx.m)]
    tested = 0
    for trial in range(12):
        rows = [ctx.mult((0,) * ctx.m,
                         tuple(rng.randint(-4, 4) for _ in range(ctx.m)))
                for _ in range(rng.randint(1, 3))]
        # Every other subgroup is closed to a normal one, whose rows lead
        # with 1 more often, by the letters as conjugators.
        form, _ = full_form_rows(ctx, rows, conjugators=units[:trial % 2 * 3])
        full = first_full_column(ctx, form)
        for _ in range(4 if full <= ctx.m else 0):
            x = ctx.mult((0,) * ctx.m, (0,) * (full - 1) + tuple(
                rng.randint(-5, 5) for _ in range(ctx.m - full + 1)))
            assert not any(x[:full - 1])
            assert subgroups._checked_scan(ctx, form, x) is not None
            assert full_form_rows(ctx, [*form, x])[0] == form
            tested += 1
    assert tested >= 8


# Every kind of context: free groups, quotients (one whose relator rows do
# not commute), a layer of the descent, and products in both orders.
WEIGHT_CONTEXTS = {
    "F(3,2)": M.free_presentation(3, 2),
    "F(4,2)": M.free_presentation(4, 2),
    **{f"finite{i}": pres for i, pres in enumerate(FINITE_QUOTIENTS)},
    "F(3,2)/<a1^4,a2^2a1^2>": _quotient(3, [((1, 4),), ((2, 2), (1, 2))]),
}
WEIGHT_CONTEXTS["layer2"] = decisions._layer(WEIGHT_CONTEXTS["finite3"], 2)[1]
WEIGHT_CONTEXTS["HEISxfinite3"] = subgroups.ProductContext(
    HEIS, FINITE_QUOTIENTS[3])
WEIGHT_CONTEXTS["finite3xHEIS"] = subgroups.ProductContext(
    FINITE_QUOTIENTS[3], HEIS)
WEIGHT_CONTEXTS["HEISxHEIS"] = subgroups.ProductContext(HEIS, HEIS)


@pytest.mark.parametrize("ctx", [*WEIGHT_CONTEXTS.values(),
                                 M.build_hall_basis(3, 2)],
                         ids=[*WEIGHT_CONTEXTS, "basis(3,2)"])
def test_pairs_that_commute_by_weight_commute(ctx):
    # Reduced elements whose pivots commute by weight commute.  A product
    # context whose H columns kept their weights in H would fail this: a
    # row that leads in H has an arbitrary G part.  Every context holds
    # the data that the weight test and the sift read as attributes, set
    # once at construction; a basis, the context of the relator check,
    # holds its own.
    basis = isinstance(ctx, M.HallBasis)
    members = ({"m", "weights", "top_weight"} if basis
               else {"m", "c", "weights", "torsion"})
    assert members <= vars(ctx).keys()
    assert len(ctx.weights) == ctx.m + 1 and ctx.weights[0] == 0
    torsion = {} if basis else ctx.torsion
    rng = random.Random(ctx.m)

    def draw(p):
        e = torsion.get(p)
        head = rng.randint(1, e - 1) if e else rng.choice((-2, -1, 1, 3))
        x = ctx.mult((0,) * ctx.m, (0,) * (p - 1) + (head,) + tuple(
            rng.randint(-9, 9) for _ in range(ctx.m - p)))
        assert first_nonzero(x) == p
        return x

    live = [p for p in range(1, ctx.m + 1) if torsion.get(p) != 1]
    pairs = [(p, q) for p in live for q in live
             if commute_by_weight(ctx, p, q)]
    assert pairs
    for p, q in pairs:
        for _ in range(3):
            u, v = draw(p), draw(q)
            assert ctx.mult(u, v) == ctx.mult(v, u)


def test_closure_skips_sifts_past_the_full_column():
    # The normal closure of a1 in F(4,2)/<a1^2, a2^2>, tracked.  Sifting
    # every relative-order power, pair and conjugate that the weights allow
    # takes 54 group operations; skipping those whose pivot is past the
    # first column from which on every row leads with 1, 31.
    pres = _quotient(4, [((1, 2),), ((2, 2),)])
    units = [tuple(int(j == i) for j in range(pres.m)) for i in range(2)]
    ctx = CountingContext(pres, 40)
    out, exprs = full_form_rows(ctx, units[:1], [("g", 0)], units)
    assert out == full_form_rows(pres, units[:1], conjugators=units)[0]
    assert len(exprs) == len(out)


@pytest.mark.parametrize("pres", [M.free_presentation(3, 2),
                                  FINITE_QUOTIENTS[3]],
                         ids=["F(3,2)", "F(3,2)/<a1^3,a2^3>"])
def test_power_product_folds_from_the_first_power(pres, table_calls):
    # k nonzero powers take k - 1 compiled products: the fold starts from
    # the first power, not from the identity.  The cubes' relator rows
    # commute by weight, so reducing there multiplies nothing.
    rng = random.Random(pres.m)
    rows = [M.reduce_coords(pres, tuple(rng.randint(-9, 9)
                                        for _ in range(pres.m)))
            for _ in range(6)]
    calls = table_calls(pres.basis)
    for k in range(1, 7):
        exponents = [0] * 6
        for i in rng.sample(range(6), k):
            exponents[i] = rng.choice((-5, -1, 1, 2, 7))
        acc = M.identity(pres)
        for row, e in zip(rows, exponents):
            acc = M.mult(acc, M.power(M.element(pres, row), e))
        calls.clear()
        assert subgroups._power_product(pres, rows, exponents) == acc.coords
        assert calls["mult"] == k - 1
    calls.clear()
    for exponents in ([0] * 6, ()):
        assert subgroups._power_product(pres, rows, exponents) == (0,) * pres.m
    assert not calls


def test_corrupt_membership_witness_raises(monkeypatch):
    # h = (2, 1, 4) is g_1 g_2 g_3^2 over the rows g_i of the full form, and
    # [g_2, g_1] = g_3 is the first relation tail of the subgroup
    # presentation; a scan that returns another exponent is caught by
    # multiplying back.
    gens = [(2, 0, 0), (0, 1, 0)]
    form, _ = ff(HEIS, gens)
    h = M.element(HEIS, (2, 1, 4))
    assert M.membership(HEIS, form, h).gamma == (1, 1, 2)
    scan = subgroups._membership_scan

    def corrupt(*args):
        gamma = scan(*args)
        return [gamma[0] + 1] + gamma[1:] if gamma else gamma
    monkeypatch.setattr(subgroups, "_membership_scan", corrupt)
    with pytest.raises(InternalConsistencyError, match="does not give h"):
        M.membership(HEIS, form, h)
    with pytest.raises(InternalConsistencyError, match="does not give h"):
        M.subgroup_presentation(HEIS, M.coordinate_matrix(HEIS, gens))


def test_untracked_sifts_build_no_derivations(monkeypatch):
    # Untracked rows carry a placeholder derivation, and a row operation
    # with a placeholder factor keeps the other derivation as it is.
    pres = M.from_finite_presentation(M.build_hall_basis(3, 2),
                                      [((1, 3),), ((2, 3),)])
    g = M.element(pres, (1, 2, 0, 1, 2))
    expected = M.centralizer(pres, g)

    def no_expression(parts):
        raise AssertionError("an untracked sift built a derivation")

    monkeypatch.setattr(subgroups, "_expr_mul", no_expression)
    assert M.consistency_check(pres)
    assert M.centralizer(pres, g) == expected


def test_conjugators_close_to_the_normal_closure():
    # <a1, a2^3 a3> is not normal; the generators as conjugators give its
    # normal closure, whose derivations use the conjugators as symbols 3, 4.
    pres = M.free_presentation(3, 2)
    basis = pres.basis
    rows = [(1, 0, 0, 0, 0), (0, 3, 1, 0, 0)]
    units = [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]
    plain, _ = full_form_rows(pres, rows)
    closed, exprs = full_form_rows(pres, rows, [("g", 0), ("g", 1)], units)
    assert closed == normal_closure_rows(basis, rows) != plain
    symbols = [M.element(pres, v) for v in rows + units]
    for row, ex in zip(closed, exprs):
        acc = M.identity(pres)
        for sym, e in expand_expression(ex):
            acc = M.mult(acc, M.power(symbols[sym - 1], e))
        assert acc.coords == row


def test_conjugators_close_under_both_directions():
    # One direction of conjugation is enough: the sift closed under x^-1 h x
    # equals the brute-force closure under x^-1 h x and x h x^-1 together.
    rng = random.Random(41)
    grown = 0
    for c, e in ((2, 4), (3, 2)):
        pres = M.from_finite_presentation(M.build_hall_basis(c, 2),
                                          [((1, e),), ((2, e),)])
        group = FiniteGroup(pres)
        for _ in range(8):
            rows = [rng.choice(group.elements) for _ in range(2)]
            xs = [rng.choice(group.elements) for _ in range(2)]
            plain = closure = group.subgroup_closure(rows)
            while True:
                conj = {group.mult(group.mult(group.inv(x), h), x)
                        for x in xs for h in closure}
                conj |= {group.mult(group.mult(x, h), group.inv(x))
                         for x in xs for h in closure}
                bigger = group.subgroup_closure(closure | conj)
                if bigger == closure:
                    break
                closure = bigger
            out, _ = full_form_rows(pres, rows, conjugators=xs)
            assert group.subgroup_closure(out) == closure
            grown += closure != plain
    assert grown >= 4


def test_row_operations_preserve_full_form(monkeypatch):
    rng = random.Random(21)
    pick = random.Random(22)
    ops_seen = set()
    expressed = 0
    monkeypatch.setattr(subgroups, "DEFAULT_WORD_CAP", 1 << 14)
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
            mat = apply_row_operation(mat, op)
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
                    tracked, M.membership(pres, result, h))
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
        mat = apply_row_operation(mat, ("combine", 1, 2, (-1) ** k))
    form, tracked = M.full_form(z2, mat, track=True)
    h = M.element(z2, (3, 5))
    word = M.express_in_original_generators(
        tracked, M.membership(z2, form, h))
    assert word == ((1, 3), (2, 5))


def test_row_operation_errors():
    mat = M.coordinate_matrix(HEIS, [(1, 0, 0)])
    with pytest.raises(M.RejectedInput):
        apply_row_operation(mat, ("swap", 1, 2))
    with pytest.raises(M.RejectedInput):
        apply_row_operation(mat, ("remove", 1))  # not trivial
    with pytest.raises(M.RejectedInput):
        apply_row_operation(mat, ("add_relator", 1))  # free group
    with pytest.raises(M.RejectedInput):
        apply_row_operation(mat, ("frobnicate", 1))


def test_row_operation_examples():
    mat = M.coordinate_matrix(HEIS, [(1, 0, 0), (0, 1, 0)])
    twice = apply_row_operation(
        apply_row_operation(mat, ("swap", 1, 2)), ("swap", 1, 2))
    assert twice.rows == mat.rows
    mat = M.coordinate_matrix(HEIS, [(1, 1, 0)])
    assert apply_row_operation(mat, ("invert", 1)).rows[0] == (-1, -1, 1)
    mat = M.coordinate_matrix(HEIS, [(2, 0, 0)])
    grown = apply_row_operation(
        mat, ("append_product", ((1, 1), (1, -1))))
    assert grown.rows[-1] == (0, 0, 0)
    assert apply_row_operation(grown, ("remove", 2)).rows == mat.rows


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


@pytest.mark.parametrize("rows", [((1, 0),), ((1, 0, 0, 0),),
                                  ((1.0, 0, 0),)],
                         ids=["short-row", "long-row", "float-entry"])
def test_membership_rejects_a_form_that_is_not_of_the_basis(rows):
    # A `FullFormMatrix` built by the caller, not by `full_form`: its rows
    # are checked against the basis before the scan reads them.
    with pytest.raises(M.RejectedInput):
        M.membership(HEIS, M.FullFormMatrix(rows), M.element(HEIS, (1, 0, 0)))


def test_expression_cap(monkeypatch):
    form, tracked = ff(HEIS, [(2, 0, 0), (0, 1, 0)], track=True)
    w = M.membership(HEIS, form, M.element(HEIS, (0, 0, 2)))
    assert w is not None
    monkeypatch.setattr(subgroups, "DEFAULT_WORD_CAP", 2)
    with pytest.raises(SizeCapExceeded):
        M.express_in_original_generators(tracked, w)


def _random_tree(rng):
    """An expression tree over three generators whose nodes reuse earlier
    ones, so subtrees are shared, and whose composite powers mostly have
    |x| <= 3, now and then |x| log-uniform up to 10^6."""
    nodes = [("g", k) for k in range(3)]
    for _ in range(rng.randint(1, 10)):
        sign = rng.choice((-1, 1))
        pick = rng.random()
        if pick < 0.25:
            node = ("p", ("g", rng.randrange(3)), sign * rng.randint(1, 5))
        elif pick < 0.6:
            node = ("m", tuple(rng.choice(nodes)
                               for _ in range(rng.randint(1, 4))))
        else:
            x = round(10 ** rng.uniform(0, 6)) if rng.random() < 0.1 else \
                rng.randint(1, 3)
            node = ("p", rng.choice(nodes[3:] or nodes), sign * x)
        nodes.append(node)
    return nodes[-1]


@pytest.mark.parametrize("cap", [2, 64, 1 << 20])
def test_expansion_matches_streaming(cap, monkeypatch):
    # Each composite base expanded once and powered by squaring gives the
    # word of streaming it |x| times, and raises at the same letter count.
    monkeypatch.setattr(subgroups, "DEFAULT_WORD_CAP", cap)
    rng = random.Random(47)
    outcomes = collections.Counter()
    for _ in range(150):
        tree = _random_tree(rng)
        try:
            expected = conftest.expand_by_streaming(tree)
        except SizeCapExceeded:
            with pytest.raises(SizeCapExceeded):
                expand_expression(tree)
            outcomes["raised"] += 1
            continue
        assert expand_expression(tree) == expected
        outcomes["word"] += 1
    assert outcomes["raised"] and outcomes["word"]


def test_deeply_nested_bases_expand_without_recursion():
    # 5,000 composite bases, each inside the next: the stack is explicit.
    e = ("g", 0)
    for _ in range(5000):
        e = ("p", ("m", (e, ("g", 1))), -1)
    word = expand_expression(e)
    assert word == conftest.expand_by_streaming(e)
    assert len(word) == 3


def test_expansion_work_does_not_grow_with_the_exponent(monkeypatch):
    # (a1 a2 a1^-1)^(10^18) by streaming would take 3·10^18 steps; by
    # squaring it takes 60.
    monkeypatch.setattr(subgroups, "DEFAULT_WORD_CAP", 10 ** 20)
    w = ("m", (("g", 0), ("g", 1), ("p", ("g", 0), -1)))
    assert expand_expression(("p", w, 10 ** 18)) == (
        (1, 1), (2, 10 ** 18), (1, -1))


def test_matrix_from_another_presentation_is_rejected():
    # A (3,2) matrix in the free (2,2) group, and a free (2,2) matrix in a
    # quotient of the same basis.
    quotient = M.make_quotient_presentation(HEIS.basis, ((2, 0, 0), (0, 0, 2)))
    for pres, other in ((HEIS, M.free_presentation(3, 2)), (quotient, HEIS)):
        rows = [(1,) + (0,) * (other.m - 1), (0, 1) + (0,) * (other.m - 2)]
        matrix = M.coordinate_matrix(other, rows)
        with pytest.raises(M.RejectedInput, match="different presentation"):
            M.full_form(pres, matrix)
        with pytest.raises(M.RejectedInput, match="different presentation"):
            M.subgroup_presentation(pres, matrix)


def test_express_requires_tracking():
    with pytest.raises(M.RejectedInput):
        M.express_in_original_generators(None, M.MembershipWitness((0,)))


def test_express_refuses_a_witness_of_another_full_form():
    # h = (2, 3, 0) has the witness (2, 3, 0) over the full form of
    # <a1, a2>.  Zipped with the one derivation of <a1>'s full form, it
    # would be cut short to a1^2, which is (2, 0, 0).
    _, tracked = ff(HEIS, [(1, 0, 0)], track=True)
    whole, _ = ff(HEIS, [(1, 0, 0), (0, 1, 0)])
    w = M.membership(HEIS, whole, M.element(HEIS, (2, 3, 0)))
    assert w.gamma == (2, 3, 0) and len(tracked) == 1
    with pytest.raises(M.RejectedInput, match="another full form"):
        M.express_in_original_generators(tracked, w)


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
    form = full_form_rows(HEIS, [(2, 0, 0), (0, 1, 0)])[0]
    assert von_dyck_holds(HEIS, form, npres)
    assert nilpotent_presentation_consistent(npres)


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
    assert nilpotent_presentation_consistent(npres)


def test_subgroup_presentation_budget_raises_instead_of_false(monkeypatch):
    npres = M.subgroup_presentation(
        HEIS, M.coordinate_matrix(HEIS, [(2, 0, 0), (0, 1, 0)]))
    assert nilpotent_presentation_consistent(npres)
    monkeypatch.setattr(conftest, "DEFAULT_STEP_CAP", 1)
    with pytest.raises(conftest.CollectionLimit):
        nilpotent_presentation_consistent(npres)


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
    assert nilpotent_presentation_consistent(npres)


def head_tail_pairs(pres, rows):
    """The pair relations of the subgroup presentation on the full-form
    rows, every one formed with the head h = g_i x, as (alpha, beta): the
    tail of g_j g_i = g_i g_j t and of g_j^-1 g_i = g_i g_j^-1 t is
    h^-1 x g_i for x = g_j and x = g_j^-1, scanned into the later rows."""
    alpha, beta = {}, {}
    for i, j in itertools.combinations(range(len(rows)), 2):
        for x, table in ((rows[j], alpha), (pres.pow(rows[j], -1), beta)):
            head = pres.mult(rows[i], x)
            tail = pres.mult(pres.pow(head, -1), pres.mult(x, rows[i]))
            gamma = subgroups._checked_scan(pres, rows[j + 1:], tail)
            table[(i + 1, j + 1)] = (0,) * (j + 1) + tuple(gamma)
    return alpha, beta


def seeded_rows(pres, seed):
    rng = random.Random(seed)
    return [tuple(rng.randint(-9, 9) for _ in range(pres.m)) for _ in range(3)]


@pytest.mark.parametrize("pres,seed", [
    (WEIGHT_CONTEXTS["F(3,2)/<a1^4,a2^2a1^2>"], 1),
    (M.free_presentation(4, 2), 1)], ids=["F(3,2)/<a1^4,a2^2a1^2>", "F(4,2)"])
def test_subgroup_presentation_tails_match_the_head_formula(pres, seed):
    # Zero tails for the pairs that commute by weight, and commutators for
    # the others, give the relations that the head formula gives.
    matrix = M.coordinate_matrix(pres, seeded_rows(pres, seed))
    npres = M.subgroup_presentation(pres, matrix)
    rows = M.full_form(pres, matrix)[0].rows
    pivots = [first_nonzero(row) for row in rows]
    pairs = list(itertools.combinations(range(len(rows)), 2))
    skipped = [(i, j) for i, j in pairs
               if commute_by_weight(pres, pivots[i], pivots[j])]
    assert skipped and len(skipped) < len(pairs)
    assert (npres.alpha, npres.beta) == head_tail_pairs(pres, rows)


def test_subgroup_presentation_skips_pairs_that_commute_by_weight(
        table_calls):
    # At (5,3) seed 7 the 80 rows make 3,160 pairs, and the pivots of 3,043
    # commute by weight.  Their zero tails are written with no product: the
    # presentation takes 13,703 compiled calls, the full form's included,
    # against 32,879 with every tail multiplied out and scanned back.
    pres = M.free_presentation(5, 3)
    calls = table_calls(pres.basis)
    matrix = M.coordinate_matrix(pres, seeded_rows(pres, 7))
    npres = M.subgroup_presentation(pres, matrix)
    assert calls.total() < 16_000
    rows = M.full_form(pres, matrix)[0].rows
    pivots = [first_nonzero(row) for row in rows]
    skipped = [(i, j) for i, j in itertools.combinations(range(len(rows)), 2)
               if commute_by_weight(pres, pivots[i], pivots[j])]
    assert len(skipped) == 3_043
    for i, j in skipped:
        zero = (0,) * npres.s
        assert npres.alpha[(i + 1, j + 1)] == npres.beta[(i + 1, j + 1)] == zero
        assert pres.mult(rows[j], rows[i]) == pres.mult(rows[i], rows[j])
