import random
import sys

import pytest

import malcev as M
import malcev.presentations as P
import malcev.subgroups as S
from conftest import (collector_consistent, conjugates_scan,
                      normal_closure_rows, random_finite_presentation,
                      series_coords_pow)
from malcev import freegroup
from malcev.extgcd import InternalConsistencyError
from malcev.freegroup import eval_free
from malcev.presentations import FullFormViolation, check_echelon_conditions
from malcev.subgroups import full_form_rows


HEIS_BASIS = M.build_hall_basis(2, 2)


def test_make_quotient_presentation_valid():
    pres = M.make_quotient_presentation(HEIS_BASIS, ((2, 0, 0), (0, 0, 2)))
    assert pres.torsion == {1: 2, 3: 2}
    assert pres.m == 3


def test_presentation_hashes_its_relators_once(monkeypatch):
    # The descent's caches look a presentation up on every call.
    calls, row_hash = [], M.FullFormMatrix.__hash__
    monkeypatch.setattr(M.FullFormMatrix, "__hash__",
                        lambda self: calls.append(1) or row_hash(self))
    pres = M.QuotientPresentation(HEIS_BASIS, M.FullFormMatrix(((2, 0, 0),)))
    assert hash(pres) == hash(pres)
    assert len(calls) == 1
    assert pres == M.QuotientPresentation(HEIS_BASIS,
                                          M.FullFormMatrix(((2, 0, 0),)))


@pytest.mark.parametrize("rows,condition", [
    (((0, 0, 0),), "i"),                    # zero row
    (((0, 1, 0), (1, 0, 0)), "ii"),         # pivots decrease
    (((-2, 0, 0),), "iii"),                 # negative pivot
    (((1, 0, 5), (0, 0, 2)), "iv"),         # entry above pivot not reduced
    (((2, 0, 0), (0, 1, 0)), "vi"),         # missing closure row a3^2
    (((2, 0, 1),), "vi"),                   # closed but not normal
])
def test_validation_names_the_violated_condition(rows, condition):
    with pytest.raises(FullFormViolation) as exc:
        M.make_quotient_presentation(HEIS_BASIS, rows)
    assert exc.value.condition == condition


def test_echelon_condition_v_uses_ambient_torsion():
    with pytest.raises(FullFormViolation) as exc:
        check_echelon_conditions(((3, 0, 0),), {1: 4})
    assert exc.value.condition == "v"
    check_echelon_conditions(((2, 0, 0),), {1: 4})  # 2 divides 4


def test_row_length_checked():
    with pytest.raises(M.RejectedInput):
        M.make_quotient_presentation(HEIS_BASIS, ((2, 0),))


def test_consistency_check_accepts_good_presentations():
    assert M.consistency_check(M.free_presentation(2, 2))
    pres = M.make_quotient_presentation(HEIS_BASIS, ((2, 0, 0), (0, 0, 2)))
    assert M.consistency_check(pres)
    rng = random.Random(3)
    for _ in range(5):
        assert M.consistency_check(
            random_finite_presentation(rng, rng.choice([1, 2]), 2))


def test_consistency_check_rejects_non_normal_relators():
    # <a1^2 a3> is closed in the full-form sense but not normal in F_{2,2}.
    bogus = M.QuotientPresentation(HEIS_BASIS, M.FullFormMatrix(((2, 0, 1),)))
    assert not M.consistency_check(bogus)


def test_consistency_check_rejects_matrices_outside_full_form():
    # <a1^-3 a2^-2 a3^3, a3> is normal, and the collector accepts the
    # rewriting system these rows spell out, whose transversal at column 1
    # is {-2, -1, 0}.  But a negative pivot breaks condition (iii), so the
    # rows are no full form and the presentation is not one of this library.
    rows = ((-3, -2, 3), (0, 0, -1))
    pres = M.QuotientPresentation(HEIS_BASIS, M.FullFormMatrix(rows))
    assert collector_consistent(pres)
    assert not M.consistency_check(pres)


@pytest.mark.parametrize("p", [10**7, 10**40])
def test_consistency_check_of_heisenberg_mod_large_p(p):
    # Collecting from the left costs steps linear in p.
    pres = M.from_finite_presentation(HEIS_BASIS, [((1, p),), ((2, p),)])
    assert pres.torsion == {1: p, 2: p, 3: p}
    assert M.consistency_check(pres)


def agreement_set():
    """Seeded quotient presentations, consistent or not: finite quotients,
    full forms of random subgroups (mostly not normal) and matrices that
    need not be full forms at all."""
    rng = random.Random(2027)
    out = [random_finite_presentation(rng, rng.choice((1, 2, 3)),
                                      rng.choice((2, 3)))
           for _ in range(60)]
    for c, r in ((2, 2), (3, 2), (2, 3)):
        basis = M.build_hall_basis(c, r)
        for _ in range(30):
            rows = [tuple(rng.randint(-4, 4) for _ in range(basis.m))
                    for _ in range(rng.randint(1, 3))]
            out.append(M.QuotientPresentation(
                basis, M.FullFormMatrix(full_form_rows(
                    M.free_presentation(c, r), rows)[0])))
    for _ in range(60):
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(3))
                     for _ in range(rng.randint(1, 3)))
        out.append(M.QuotientPresentation(HEIS_BASIS, M.FullFormMatrix(rows)))
    return out


def is_echelon(rows):
    try:
        check_echelon_conditions(rows)
    except FullFormViolation:
        return False
    return True


def test_consistency_check_agrees_with_the_collector():
    """The collector judges every matrix that satisfies conditions (i)-(iv);
    a matrix that does not is no full form and never consistent."""
    verdicts = []
    for pres in agreement_set():
        expected = (is_echelon(pres.relators.rows)
                    and collector_consistent(pres))
        assert M.consistency_check(pres) == expected
        verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)


def validates(basis, rows):
    try:
        P._check_normal_full_form(basis, rows)
    except FullFormViolation:
        return False
    return True


@pytest.mark.parametrize("c,r", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_validation_agrees_with_the_closure_sift(c, r):
    # Validation scans the elements the normal-closure sift closes over
    # instead of building the closure.  Its verdict must be the sift's: the
    # rows are accepted exactly when their normal closure gives them back.
    # The inputs are full forms of random subgroups, mostly not normal, and
    # normal closures of random rows, with and without one entry changed.
    basis = M.build_hall_basis(c, r)
    free = M.free_presentation(c, r)
    rng = random.Random(100 * c + r)
    verdicts = []
    for _ in range(25):
        rows = [tuple(rng.randint(-3, 3) for _ in range(basis.m))
                for _ in range(rng.randint(1, 3))]
        candidates = [full_form_rows(free, rows)[0],
                      P._normal_closure(basis, rows)]
        changed = [list(row) for row in candidates[1]]
        i = rng.randrange(len(changed))
        changed[i][rng.randrange(basis.m)] += rng.choice((-1, 1))
        candidates.append(tuple(map(tuple, changed)))
        for cand in candidates:
            expected = (is_echelon(cand)
                        and P._normal_closure(basis, cand) == cand)
            assert validates(basis, cand) == expected, cand
            verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("c,r", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2),
                                 (5, 2)])
def test_commutator_check_agrees_with_the_conjugate_check(c, r):
    # The check by commutators with the generators must give the verdict of
    # the check by every conjugate the closure sift closes over, which
    # scans the pairs of rows too.  The inputs are full forms of random
    # subgroups, mostly not normal, and normal closures of random rows as
    # they are, with one row dropped and with one entry changed by 1.
    basis = M.build_hall_basis(c, r)
    free = M.free_presentation(c, r)
    rng = random.Random(1000 * c + r)
    verdicts = []
    for _ in range(100):
        rows = [tuple(rng.randint(-3, 3) for _ in range(basis.m))
                for _ in range(rng.randint(1, 3))]
        closure = P._normal_closure(basis, rows)
        dropped = list(closure)
        del dropped[rng.randrange(len(dropped))]
        changed = [list(row) for row in closure]
        changed[rng.randrange(len(changed))][rng.randrange(basis.m)] += (
            rng.choice((-1, 1)))
        for cand in (full_form_rows(free, rows)[0], closure, tuple(dropped),
                     tuple(map(tuple, changed))):
            expected = conjugates_scan(basis, cand)
            assert M.consistency_check(M.QuotientPresentation(
                basis, M.FullFormMatrix(cand))) == expected, cand
            verdicts.append(expected)
    assert 0 < sum(verdicts) < len(verdicts)


def test_validation_builds_no_closure(monkeypatch):
    # Each commutator of a row with a generator that the check cannot skip
    # is scanned once, and the first that does not scan ends the check; no
    # sift runs.
    def no_sift(*args, **kwargs):
        raise AssertionError("validation ran the closure sift")
    monkeypatch.setattr(S, "full_form_rows", no_sift)
    scans = []
    scan = S._membership_scan

    def counted(ctx, rows, h, pivots=None):
        scans.append(h)
        return scan(ctx, rows, h, pivots)
    monkeypatch.setattr(S, "_membership_scan", counted)
    # F(3,2) mod squares: rows with pivots of weight 1, 1, 2, 3, 3.  The
    # rows of weight 3 commute with the generators by weight, and a1^2 and
    # a2^2 with their own generator, so [a1^2, a2], [a2^2, a1],
    # [a3^2 a5, a1] and [a3^2 a5, a2] remain: 4 scans.
    basis = M.build_hall_basis(3, 2)
    rows = ((2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 2, 0, 1),
            (0, 0, 0, 1, 1), (0, 0, 0, 0, 2))
    assert M.consistency_check(M.QuotientPresentation(
        basis, M.FullFormMatrix(rows)))
    assert len(scans) == 4
    # <a1^2 a3, a2> in F(2,2): a1^2 a3 commutes with a1, and its
    # commutator with a2 is a3^-2 (a3 = [a2, a1]), which does not scan into
    # <a2>.  The check stops at that first scan.
    scans.clear()
    with pytest.raises(FullFormViolation) as exc:
        M.make_quotient_presentation(HEIS_BASIS, ((2, 0, 1), (0, 1, 0)))
    assert exc.value.condition == "vi"
    assert len(scans) == 1


@pytest.mark.parametrize("c,r,e,calls_bound", [(4, 2, 3, 40), (5, 3, 2, 700)])
def test_validation_scans_once_per_row_and_generator(c, r, e, calls_bound,
                                                     table_calls, monkeypatch):
    # Rows of top weight commute with every generator by weight, so the
    # check makes at most r scans for each other row: 10 on
    # F(4,2)/<a1^3, a2^3> and 96 on F(5,3)/<a1^2, a2^2, a3^2>.  It makes 8
    # and 93, in 37 and 664 compiled calls; the check by conjugates, which
    # scanned pairs of rows too, made 17 and 213 scans in 80 and 1,560.
    basis = M.build_hall_basis(c, r)
    pres = M.from_finite_presentation(
        basis, [((k, e),) for k in range(1, r + 1)])
    scans = []
    scan = S._membership_scan
    monkeypatch.setattr(S, "_membership_scan",
                        lambda *args: scans.append(1) or scan(*args))
    calls = table_calls(basis)
    assert M.consistency_check(pres)
    low = sum(basis.weights[p] < c for p in pres.relators.pivots)
    assert len(scans) <= r * low
    assert calls.total() <= calls_bound


def test_from_finite_presentation_fixture():
    basis = M.build_hall_basis(1, 2)
    pres = M.from_finite_presentation(basis, [((1, 2),)])
    assert pres.relators.rows == ((2, 0),)


def test_from_finite_presentation_word_symmetries():
    basis = M.build_hall_basis(2, 2)
    base = M.from_finite_presentation(basis, [((1, 2), (2, 1))])
    inverted = M.from_finite_presentation(basis, [((2, -1), (1, -2))])
    cycled = M.from_finite_presentation(basis, [((2, 1), (1, 2))])
    assert base.relators == inverted.relators == cycled.relators


def test_from_finite_presentation_rejects_composite_letters():
    with pytest.raises(M.RejectedInput):
        M.from_finite_presentation(HEIS_BASIS, [((3, 1),)])


def test_from_finite_presentation_closure_is_normal():
    basis = M.build_hall_basis(2, 2)
    pres = M.from_finite_presentation(basis, [((1, 2),), ((2, 3),)])
    assert normal_closure_rows(basis, pres.relators.rows) == pres.relators.rows
    assert M.consistency_check(pres)


COMMUTATOR = ((1, -1), (2, -1), (1, 1), (2, 1))  # [a1, a2]


def relator_sets(rng, r):
    """Relator words at rank r: the torsion-free commutator relator, the
    commutator times a1^-5, and seeded random words with and without a
    power of every generator."""
    def word():
        return tuple((rng.randint(1, r), rng.choice((-2, -1, 1, 2)))
                     for _ in range(rng.randint(1, 4)))
    powers = [((i, rng.randint(2, 4)),) for i in range(1, r + 1)]
    return [[COMMUTATOR], [COMMUTATOR + ((1, -5),)], powers + [word()],
            [word(), word()]]


@pytest.mark.parametrize("c,r", [(2, 2), (3, 2), (3, 3), (4, 2), (5, 2)])
def test_from_finite_presentation_matches_the_normal_closure_oracle(c, r):
    # The oracle conjugates in both directions, round after round, and the
    # collector judges the result without the sift.
    basis = M.build_hall_basis(c, r)
    rng = random.Random(c * 10 + r)
    for relators in relator_sets(rng, r):
        pres = M.from_finite_presentation(basis, relators)
        expected = normal_closure_rows(
            basis, [eval_free(basis, w) for w in relators])
        assert pres.relators.rows == expected
        assert collector_consistent(pres)


def test_from_finite_presentation_makes_few_polynomial_calls(table_calls):
    # One sift closed under the generators takes 335 calls of the compiled
    # polynomials here (328 products and 7 powers, 6 of them inverses);
    # forming iterated commutators of the relators to depth c - 1 and
    # sifting them took over 10,000.
    basis = M.build_hall_basis(5, 2)
    calls = table_calls(basis)
    pres = M.from_finite_presentation(basis, [((1, 3),), ((2, 3),)])
    assert len(pres.relators.rows) == basis.m
    assert calls.total() <= 400


def test_describe_parses_back():
    from malcev.parsing import parse_document
    pres = M.make_quotient_presentation(HEIS_BASIS, ((2, 0, 0), (0, 0, 2)))
    doc = parse_document(pres.describe())
    assert doc[0].presentation == pres


# The four fixed quotients of the finite_decisions benchmark workload.
_COMM = ((2, -1), (1, -1), (2, 1), (1, 1))  # [a2, a1]
FINITE_QUOTIENTS = (
    ((2, 2), [((1, 3),), ((2, 3),)]),
    ((2, 2), [((1, 4),), ((2, 4),), _COMM * 2]),
    ((3, 2), [((1, 2),), ((2, 2),)]),
    ((3, 2), [((1, 3),), ((2, 3),)]),
)


def reference_reduce(pres, coords, quotients):
    """The torsion fold with each relator power computed by the series
    engine, whether or not the row commutes; appends (column, q) for every
    nonzero quotient q to `quotients`."""
    basis = pres.basis
    relators = dict(zip(pres.relators.pivots, pres.relators.rows))
    y = list(coords)
    for col in sorted(pres.torsion):
        q, _ = divmod(y[col - 1], pres.torsion[col])
        if q:
            quotients.append((col, q))
            suffix = tuple([0] * (col - 1) + y[col - 1:])
            relator_pow = series_coords_pow(basis, relators[col], -q)
            y[col - 1:] = basis.mult(relator_pow, suffix)[col - 1:]
    return tuple(y)


def test_reduce_coords_matches_reference_fold():
    rng = random.Random(44)
    presentations = [M.from_finite_presentation(M.build_hall_basis(c, r), rels)
                     for (c, r), rels in FINITE_QUOTIENTS]
    presentations += [random_finite_presentation(rng, c, 2)
                      for c in (1, 2, 3) for _ in range(3)]
    for pres in presentations:
        quotients = []
        for _ in range(30):
            bound = rng.choice((9, 1 << 64))
            coords = tuple(rng.randint(-bound, bound) for _ in range(pres.m))
            reduced = M.reduce_coords(pres, coords)
            assert reduced == reference_reduce(pres, coords, quotients)
            for col, e in pres.torsion.items():
                assert 0 <= reduced[col - 1] < e
        assert {q > 0 for _, q in quotients} == {True, False}


# F(3,2)/<a1^4, a2^2 a1^2>: its relator row (2, 2, 0, 0, 0) at column 1 does
# not commute by weight (1 + 1 <= 3); its rows at columns 2-5 do.
MIXED = ((3, 2), [((1, 4),), ((2, 2), (1, 2))])


def support(row):
    return tuple((j, v) for j, v in enumerate(row) if v)


# Rows of F(5,3)/<a1^4, a2^2 a1^2, a3^3> as {0-based index: value}: those at
# columns 1 and 4 do not commute by weight, those at 2, 3 and 8 do.  A raw
# presentation of these rows folds those columns as the quotient does,
# without the 0.7 s sift that builds the quotient.
F53_ROWS = ({0: 2, 1: 2}, {1: 4}, {2: 3}, {3: 2, 7: 1}, {7: 2, 20: 1})


def test_reduce_coords_folds_with_one_multiply(table_calls):
    # Building the folds multiplies nothing.  A fold by a row that does not
    # commute is one power of the row, none when q = -1, and one multiply;
    # a fold by a row that commutes is a subtraction of its nonzero
    # entries, with neither.  The squares and MIXED have the row
    # (0, 0, 2, 0, 1), which commutes and has a nonzero entry after its
    # pivot.
    cubes = M.from_finite_presentation(M.build_hall_basis(3, 2),
                                       [((1, 3),), ((2, 3),)])
    squares = M.from_finite_presentation(M.build_hall_basis(3, 2),
                                         [((1, 2),), ((2, 2),)])
    mixed = M.from_finite_presentation(M.build_hall_basis(*MIXED[0]), MIXED[1])
    assert (dict(zip(squares.relators.pivots, squares.relators.rows))[3]
            == dict(zip(mixed.relators.pivots, mixed.relators.rows))[3]
            == (0, 0, 2, 0, 1))
    basis53 = M.build_hall_basis(5, 3)
    f53 = M.QuotientPresentation(basis53, M.FullFormMatrix(tuple(
        tuple(row.get(j, 0) for j in range(basis53.m)) for row in F53_ROWS)))
    rng = random.Random(45)
    for pres, noncommuting in ((cubes, set()), (squares, set()),
                               (mixed, {1}), (f53, {1, 4})):
        basis = pres.basis
        zeros = (0,) * (pres.m - 5)
        vectors = [(7, -8, 1 << 70, 5, -(1 << 64)) + zeros,
                   (2, 0, 0, 0, 0) + zeros, (-1, 0, 0, 0, 0) + zeros]
        vectors += [tuple(rng.randint(-1 << 40, 1 << 40) for _ in range(pres.m))
                    for _ in range(10)]
        quotients = []
        expected = [reference_reduce(pres, y, quotients) for y in vectors]
        fresh = M.QuotientPresentation(basis, pres.relators)  # folds unbuilt
        calls = table_calls(basis)
        calls.clear()
        folds = fresh.folds
        assert not calls
        assert [M.reduce_coords(fresh, y) for y in vectors] == expected
        relators = dict(zip(pres.relators.pivots, pres.relators.rows))
        assert [(col, e, sup) for col, e, sup, _ in folds] == [
            (p, pres.torsion[p], support(relators[p]))
            for p in sorted(pres.torsion)]
        for col, _, _, row in folds:
            assert row == (None if col not in noncommuting
                           else relators[col])
        powered = [q for col, q in quotients if col in noncommuting]
        assert calls["mult"] == len(powered)
        assert calls["pow_polynomials"] == sum(q != -1 for q in powered)
        assert {1, -1} <= set(powered) if noncommuting else not powered
        assert {col for col, _ in quotients} == set(pres.torsion)


def test_hot_path_checks_no_lengths(monkeypatch):
    # Vectors are checked where they come in from outside; products, powers,
    # folds and sifts of checked vectors run without the check.
    pres = M.from_finite_presentation(M.build_hall_basis(3, 2),
                                      [((1, 3),), ((2, 3),)])
    u, v = (1, 2, 0, 1, 2), (2, 2, 1, 0, 1)
    big = (7, -8, 1 << 70, 5, -(1 << 64))

    def run():
        return ([pres.mult(u, v)] + [pres.pow(u, e) for e in (-1, 0, 1, 5)]
                + [M.reduce_coords(pres, big), full_form_rows(pres, [u, v]),
                   M.consistency_check(pres)])

    expected = run()

    def no_check(basis, *vectors):
        raise AssertionError("length check on the hot path")

    bound = [m for name, m in sys.modules.items()
             if name.split(".")[0] == "malcev"
             and getattr(m, "check_lengths", None) is freegroup.check_lengths]
    assert len(bound) >= 4
    for module in bound:
        monkeypatch.setattr(module, "check_lengths", no_check)
    assert run() == expected
    assert expected[-1] is True


def test_reduce_coords_without_torsion_returns_input():
    pres = M.free_presentation(2, 2)
    assert pres.folds == ()
    assert M.reduce_coords(pres, [4, -5, 1 << 80]) == (4, -5, 1 << 80)


def test_reduce_coords_returns_a_reduced_tuple_itself():
    # A vector whose torsion columns are all in range is not copied, with
    # torsion or without; one that folds comes back as a new tuple.
    free = (4, -5, 1 << 80)
    assert M.reduce_coords(M.free_presentation(2, 2), free) is free
    pres = M.from_finite_presentation(M.build_hall_basis(*MIXED[0]), MIXED[1])
    assert len(pres.folds) == 5
    reduced = tuple(e - 1 for _, e in sorted(pres.torsion.items()))
    assert M.reduce_coords(pres, reduced) is reduced
    unreduced = (0, 0, 0, 0, pres.torsion[5])
    folded = M.reduce_coords(pres, unreduced)
    assert folded == (0, 0, 0, 0, 0) and folded is not unreduced


@pytest.mark.parametrize("index,corrupt_row", [
    # rows that do not commute, folded by a power of the corrupted row
    (0, (3, 2, 0, 0, 0)),  # wrong pivot: the folded column is not the remainder
    (1, (1, 4, 0, 0, 0)),  # support left of the column: the fold leaves the suffix
    # rows that commute, folded by subtraction
    (2, (0, 0, 3, 0, 1)),  # wrong pivot: the folded column is not the remainder
    (3, (0, 0, 0, 2, 1)),  # the same at a pivot of weight 3
    (2, (0, 0, 0, 0, 1)),  # pivot entry lost: only the tail is subtracted
    (3, (0, 0, 1, 1, 1)),  # support left of the column, pivot intact
])
def test_corrupt_fold_raises(monkeypatch, index, corrupt_row):
    pres = M.from_finite_presentation(M.build_hall_basis(*MIXED[0]), MIXED[1])
    basis = pres.basis
    folds = list(pres.folds)
    col, e, _, _ = folds[index]
    folds[index] = (col, e, support(corrupt_row),
                    None if basis.commuting(corrupt_row) else corrupt_row)
    assert (folds[index][3] is None) == (index >= 2)
    monkeypatch.setitem(pres.__dict__, "folds", tuple(folds))
    coords = [0] * pres.m
    coords[col - 1] = 5
    with pytest.raises(InternalConsistencyError):
        M.reduce_coords(pres, coords)


# The bases of class <= 5 and rank 2 or 3, (6, 2), and rank 1 at class 4,
# whose one letter commutes with itself.
COMMUTING_BASES = [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (5, 2),
                   (4, 3), (5, 3), (6, 2), (4, 1)]


def sparse_vector(rng, basis):
    """1-3 nonzero entries, each on a letter of a random weight, so that
    supports that commute by weight and supports that do not both occur."""
    top = basis.top_weight
    by_weight = [[i for i in range(basis.m) if basis.letters[i].weight == w]
                 for w in range(1, top + 1)]
    u = [0] * basis.m
    for _ in range(rng.randint(1, 3)):
        u[rng.choice(by_weight[rng.randint(1, top) - 1])] = (
            rng.choice((-1, 1)) * rng.randint(1, 1 << 20))
    return tuple(u)


@pytest.mark.parametrize("c,r", COMMUTING_BASES)
def test_commuting_powers_and_folds_match_the_power_polynomials(c, r):
    # The scaling and the subtraction of a row that commutes against the
    # power polynomials, which make no such shortcut.
    basis = M.build_hall_basis(c, r)
    rng = random.Random(100 * c + r)
    kinds = set()
    for _ in range(100):
        u = sparse_vector(rng, basis)
        weights = [basis.weights[i + 1] for i, x in enumerate(u) if x]
        commuting = all(a + b > basis.top_weight
                        for i, a in enumerate(weights) for b in weights[i + 1:])
        assert basis.commuting(u) == commuting
        kinds.add(commuting)
        for e in (-7, -2, -1, 2, 3, 1 << 40):
            assert basis.pow(u, e) == basis.pow_polynomials(u, e)
        # u, with a positive pivot, as the one relator row of a fold
        col = P.first_nonzero(u)
        row = tuple(abs(x) if j == col - 1 else x for j, x in enumerate(u))
        pres = M.QuotientPresentation(basis, M.FullFormMatrix((row,)))
        suffix = tuple(0 if j < col - 1 else rng.randint(-1 << 50, 1 << 50)
                       for j in range(basis.m))
        q = suffix[col - 1] // row[col - 1]
        power = basis.pow_polynomials(row, -q)
        assert M.reduce_coords(pres, suffix) == basis.mult(power, suffix)
    assert kinds == ({True} if basis.top_weight == 1 else {True, False})
