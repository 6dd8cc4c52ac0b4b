import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import malcev as M
from conftest import (MAT_ID, mat_inv, mat_mul, mat_of_coords, mat_of_word,
                      mat_pow, structure_relations)
from malcev.extgcd import RejectedInput
from malcev.freegroup import (SHIPPED_MAX, SizeCapExceeded, build_hall_basis,
                              commute_by_weight, coords_to_word, eval_free)


@pytest.mark.parametrize("c,r,m", [
    (1, 2, 2), (2, 2, 3), (3, 2, 5), (2, 4, 10), (3, 4, 30), (5, 3, 80),
])
def test_basis_sizes_match_witt_formula(c, r, m):
    assert build_hall_basis(c, r).m == m


def test_basis_letters_are_weight_ordered_and_valid():
    b = build_hall_basis(4, 3)
    weights = [bc.weight for bc in b.letters]
    assert weights == sorted(weights)
    for i, bc in enumerate(b.letters, start=1):
        if bc.weight > 1:
            assert bc.left > bc.right
            assert b.weight(bc.left) + b.weight(bc.right) == bc.weight
            left = b.letters[bc.left - 1]
            if left.weight > 1:
                assert left.right <= bc.right


def test_invalid_parameters_rejected():
    with pytest.raises(RejectedInput):
        build_hall_basis(0, 2)
    with pytest.raises(SizeCapExceeded):
        build_hall_basis(9, 9)


HEIS = build_hall_basis(2, 2)
FREE = M.free_presentation(2, 2)


def free(coords):
    return M.element(FREE, coords)


def test_eval_free_fixtures():
    assert eval_free(HEIS, ((2, 1), (1, 1))) == (1, 1, 1)
    assert eval_free(HEIS, ()) == (0, 0, 0)
    g = free((1, 1, 0))
    assert M.mult(g, g).coords == (2, 2, 1)
    assert M.power(g, 4).coords == (4, 4, 6)
    assert M.inverse(g).coords == (-1, -1, 1)
    assert M.identity(FREE).coords == (0, 0, 0)


def test_unitriangular_oracle_random_words():
    rng = random.Random(11)
    for _ in range(200):
        word = tuple((rng.randint(1, 2), rng.randint(-8, 8))
                     for _ in range(rng.randint(0, 12)))
        coords = eval_free(HEIS, word)
        assert mat_of_coords(coords) == mat_of_word(word)


def test_mat_pow_closed_form():
    rng = random.Random(12)
    for _ in range(40):
        x, y, z = (rng.randint(-50, 50) for _ in range(3))
        a = ((1, x, z), (0, 1, y), (0, 0, 1))
        pos, neg = MAT_ID, MAT_ID
        for e in range(21):
            assert mat_pow(a, e) == pos
            assert mat_pow(a, -e) == neg
            pos = mat_mul(pos, a)
            neg = mat_mul(neg, mat_inv(a))


def test_binary_exponents_fast_and_exact():
    start = time.monotonic()
    big = 1 << 60
    coords = eval_free(HEIS, ((1, big), (2, 1), (1, -big)))
    assert coords == (0, 1, -big)
    assert time.monotonic() - start < 1.0


coords_strategy = st.tuples(st.integers(-9, 9), st.integers(-9, 9),
                            st.integers(-9, 9))


@given(coords_strategy, coords_strategy, coords_strategy)
@settings(max_examples=200)
def test_mult_associative(u, v, w):
    u, v, w = free(u), free(v), free(w)
    assert M.mult(M.mult(u, v), w) == M.mult(u, M.mult(v, w))


@given(coords_strategy)
@settings(max_examples=100)
def test_inverse_cancels(u):
    assert M.mult(free(u), M.inverse(free(u))) == M.identity(FREE)


@given(coords_strategy, st.integers(-40, 40), st.integers(-40, 40))
@settings(max_examples=100)
def test_powers_add(u, a, b):
    u = free(u)
    assert M.mult(M.power(u, a), M.power(u, b)) == M.power(u, a + b)


def test_power_matches_oracle_class3():
    b = build_hall_basis(3, 2)
    rng = random.Random(5)
    for _ in range(30):
        u = tuple(rng.randint(-4, 4) for _ in range(b.m))
        e = rng.randint(-6, 6)
        direct = b.pow(u, e)
        acc = (0,) * b.m
        step = u if e >= 0 else b.inverse(u)
        for _ in range(abs(e)):
            acc = b.mult(acc, step)
        assert acc == direct


@pytest.mark.parametrize("c,r", [(3, 2), (5, 3)])
def test_commuting_power_makes_no_multiplication(c, r, monkeypatch):
    basis = build_hall_basis(c, r)
    calls = []
    for kind in ("mult", "inverse", "pow_polynomials"):
        f = getattr(basis, kind)
        monkeypatch.setitem(basis.__dict__, kind,
                            lambda *a, f=f, kind=kind: calls.append(kind) or f(*a))
    w = basis.top_weight
    top = [i for i in range(basis.m) if basis.weight(i + 1) == w]

    def vector(entries):
        return tuple(entries.get(i, 0) for i in range(basis.m))

    # one letter; a generator with the heaviest letters (1 + c > c); two
    # heaviest letters
    commuting = [vector({0: 3}), vector({1: -2, top[0]: 5, top[-1]: 1}),
                 vector({top[0]: 4, top[1]: -9})]
    for u in commuting:
        for e in (-1, 2, -(1 << 40)):
            assert basis.pow(u, e) == tuple(e * x for x in u)
    assert calls == []
    u = vector({0: 1, 1: 1})  # two generators: 1 + 1 <= c
    basis.pow(u, 5)
    assert calls == ["pow_polynomials"]
    calls.clear()
    basis.pow(u, -1)
    assert calls == ["inverse"]


def test_structure_relations_heisenberg():
    sr = structure_relations(HEIS)
    assert sr.alpha[(1, 2)] == (0, 0, 1)
    assert sr.beta[(1, 2)] == (0, 0, -1)
    assert sr.alpha[(1, 3)] == (0, 0, 0)
    assert sr.alpha[(2, 3)] == (0, 0, 0)


def test_structure_relations_tails_supported_on_higher_letters():
    b = build_hall_basis(3, 2)
    sr = structure_relations(b)
    for (i, j), tail in {**sr.alpha, **sr.beta}.items():
        assert not any(tail[:j])


def test_coords_to_word_roundtrip():
    word = coords_to_word((2, 0, -3))
    assert word == ((1, 2), (3, -3))
    assert eval_free(HEIS, word) == (2, 0, -3)


def test_letter_out_of_range_rejected():
    # every letter is checked: under a zero exponent, before or after the
    # first nonzero power, and after a power that was added
    for word in (((4, 1),), ((4, 0),), ((0, 1), (1, 1)), ((1, 1), (0, 0)),
                 ((1, 1), (2, 1), (4, 2)), ((3, 1), (4, 0))):
        with pytest.raises(RejectedInput):
            eval_free(HEIS, word)


def test_eval_free_starts_at_the_first_power(monkeypatch):
    # The first nonzero power starts the product and a power that commutes
    # by weight with the product's tail after its letter is added, so only
    # the other powers multiply.
    calls = []

    def counted(basis):
        mult = basis.mult
        monkeypatch.setitem(basis.__dict__, "mult",
                            lambda u, v: calls.append(1) or mult(u, v))
        return basis

    basis = counted(build_hall_basis(3, 2))
    for word, coords, k in ((((2, 0),), (0,) * 5, 0),
                            (((2, 0), (3, -4), (1, 0)), (0, 0, -4, 0, 0), 0),
                            (((1, 1), (2, 1)), (1, 1, 0, 0, 0), 0),
                            (((4, 1), (3, 1)), (0, 0, 1, 1, 0), 0),
                            (((5, 2), (1, 3), (2, -1)), (3, -1, 0, 0, 2), 0),
                            (((2, 1), (1, 1)), (1, 1, 1, 0, 0), 1),
                            (((1, 1), (2, 1), (1, 1)), (2, 1, 1, 0, 0), 1),
                            (((2, 1), (1, 0), (1, 1), (2, 1)),
                             (1, 2, 1, 0, 1), 2),
                            (((2, 1), (1, 1), (2, -1), (1, -1)),
                             (0, 0, 1, -1, -1), 3)):
        calls.clear()
        assert eval_free(basis, word) == coords
        assert len(calls) == k
    # at (5,3) every two letters of weight >= 3 commute (3 + 3 > 5): a word
    # of them, in any order, is the sum of its powers
    basis = counted(build_hall_basis(5, 3))
    heavy = [i for i in range(1, basis.m + 1) if basis.weight(i) >= 3]
    rng = random.Random(13)
    calls.clear()
    for _ in range(20):
        word = tuple((rng.choice(heavy), rng.randint(-1 << 64, 1 << 64))
                     for _ in range(12))
        coords = [0] * basis.m
        for letter, e in word:
            coords[letter - 1] += e
        assert eval_free(basis, word) == tuple(coords)
    assert calls == []


# Every basis with shipped tables; a rank-1 basis above class 1 uses the
# tables of its heaviest letter's weight.
SHIPPED = [(c, r) for c in range(1, SHIPPED_MAX[0] + 1)
           for r in range(1, SHIPPED_MAX[1] + 1)
           if build_hall_basis(c, r).top_weight == c]


def random_letter(rng, basis):
    """A letter of a uniformly random weight, so that the few light letters
    of a large basis come up as often as the many heavy ones."""
    w = rng.randint(1, basis.top_weight)
    return rng.choice([i for i in range(1, basis.m + 1)
                       if basis.weight(i) == w])


@pytest.mark.parametrize("c,r", SHIPPED)
def test_commuting_reads_commute_by_weight(c, r):
    # The table holds, for each letter, where the later letters that
    # commute with it by weight begin; `commuting` reading it agrees with
    # `commute_by_weight` on the two lightest letters of the support.
    basis = build_hall_basis(c, r)
    m = basis.m
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            assert commute_by_weight(basis, i, j) == (
                j > basis.commuting_from[i - 1])
    rng = random.Random(10 * c + r)
    kinds = set()
    for _ in range(300):
        u = [0] * m
        for _ in range(rng.randint(0, 4)):
            u[random_letter(rng, basis) - 1] = rng.choice((-1, 1, 1 << 40))
        support = [i + 1 for i, x in enumerate(u) if x]
        commuting = (len(support) < 2
                     or commute_by_weight(basis, support[0], support[1]))
        assert basis.commuting(u) == basis.commuting(tuple(u)) == commuting
        kinds.add(commuting)
    assert kinds == ({True} if c == 1 else {True, False})


@pytest.mark.parametrize("c,r", [(1, 3), (2, 2), (3, 2), (3, 3), (4, 2),
                                 (5, 2), (4, 3), (5, 3)])
def test_eval_free_matches_a_left_fold_of_mult(c, r):
    # Adding a power that commutes by weight with the product's tail gives
    # the vector of the plain fold; a1·a2·a1, whose second a1 does not
    # commute with a2, and a2·a1 must multiply (the sum is not the answer).
    basis = build_hall_basis(c, r)
    m = basis.m

    def fold(word):
        out = (0,) * m
        for letter, e in word:
            step = [0] * m
            step[letter - 1] = e
            out = basis.mult(out, step)
        return out

    rng = random.Random(100 * c + r)
    words = [((1, 1), (2, 1), (1, 1)), ((2, 3), (1, -5))] if r > 1 else []
    for _ in range(120):
        words.append(tuple(
            (random_letter(rng, basis),
             rng.choice((0, 1, -1, rng.randint(-1 << 64, 1 << 64))))
            for _ in range(rng.randint(0, 12))))
    for word in words:
        assert eval_free(basis, word) == fold(word)
    if r > 1 and c > 1:
        for word in words[:2]:
            assert eval_free(basis, word) != tuple(
                sum(e for letter, e in word if letter == i)
                for i in range(1, m + 1))


def test_wrong_length_vectors_rejected():
    # Every boundary where coordinate vectors come in from outside: a
    # product or power of a free-group element starts at `element`.
    for u, v in (((1, 2), (1, 2, 3)), ((1, 2, 3, 4), (1, 2, 3))):
        with pytest.raises(RejectedInput):
            M.mult(free(u), free(v))
        with pytest.raises(RejectedInput):
            M.mult(free(v), free(u))
        for e in (-1, 0, 1, 5):
            with pytest.raises(RejectedInput):
                M.power(free(u), e)
        with pytest.raises(RejectedInput):
            M.inverse(free(u))
        with pytest.raises(RejectedInput):
            M.coordinate_matrix(FREE, [v, u])
        with pytest.raises(RejectedInput):
            M.CoordinateMatrix(FREE, (v, u))
        with pytest.raises(RejectedInput):
            M.make_quotient_presentation(HEIS, (u,))
