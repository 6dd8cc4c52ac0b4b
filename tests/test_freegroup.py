import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import malcev as M
from conftest import (MAT_ID, mat_inv, mat_mul, mat_of_coords, mat_of_word,
                      mat_pow)
from malcev.extgcd import RejectedInput
from malcev.freegroup import (SizeCapExceeded, build_hall_basis,
                              coords_inverse, coords_mult, coords_pow,
                              coords_to_word, eval_free, identity_coords,
                              structure_relations)


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


def test_eval_free_fixtures():
    assert eval_free(HEIS, ((2, 1), (1, 1))) == (1, 1, 1)
    assert eval_free(HEIS, ()) == (0, 0, 0)
    assert coords_mult(HEIS, (1, 1, 0), (1, 1, 0)) == (2, 2, 1)
    assert coords_pow(HEIS, (1, 1, 0), 4) == (4, 4, 6)
    assert coords_inverse(HEIS, (1, 1, 0)) == (-1, -1, 1)


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
    left = coords_mult(HEIS, coords_mult(HEIS, u, v), w)
    right = coords_mult(HEIS, u, coords_mult(HEIS, v, w))
    assert left == right


@given(coords_strategy)
@settings(max_examples=100)
def test_inverse_cancels(u):
    assert coords_mult(HEIS, u, coords_inverse(HEIS, u)) == (0, 0, 0)


@given(coords_strategy, st.integers(-40, 40), st.integers(-40, 40))
@settings(max_examples=100)
def test_powers_add(u, a, b):
    prod = coords_mult(HEIS, coords_pow(HEIS, u, a), coords_pow(HEIS, u, b))
    assert prod == coords_pow(HEIS, u, a + b)


def test_power_matches_oracle_class3():
    b = build_hall_basis(3, 2)
    rng = random.Random(5)
    for _ in range(30):
        u = tuple(rng.randint(-4, 4) for _ in range(b.m))
        e = rng.randint(-6, 6)
        direct = coords_pow(b, u, e)
        acc = identity_coords(b)
        step = u if e >= 0 else coords_inverse(b, u)
        for _ in range(abs(e)):
            acc = coords_mult(b, acc, step)
        assert acc == direct


@pytest.mark.parametrize("c,r", [(3, 2), (5, 3)])
def test_commuting_power_makes_no_multiplication(c, r, monkeypatch):
    basis = build_hall_basis(c, r)
    calls = []
    for kind in ("mult", "inverse"):
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
    assert calls == ["mult"] * (w - 1)
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
    with pytest.raises(RejectedInput):
        eval_free(HEIS, ((4, 1),))


def test_wrong_length_vectors_rejected():
    # Every boundary where coordinate vectors come in from outside.
    free = M.free_presentation(2, 2)
    for u, v in (((1, 2), (1, 2, 3)), ((1, 2, 3, 4), (1, 2, 3))):
        with pytest.raises(RejectedInput):
            coords_mult(HEIS, u, v)
        with pytest.raises(RejectedInput):
            coords_mult(HEIS, v, u)
        for e in (-1, 0, 1, 2):
            with pytest.raises(RejectedInput):
                coords_pow(HEIS, u, e)
        with pytest.raises(RejectedInput):
            coords_inverse(HEIS, u)
        with pytest.raises(RejectedInput):
            M.element(free, u)
        with pytest.raises(RejectedInput):
            M.coordinate_matrix(free, [v, u])
        with pytest.raises(RejectedInput):
            M.CoordinateMatrix(free, (v, u))
        with pytest.raises(RejectedInput):
            M.make_quotient_presentation(HEIS, (u,))
