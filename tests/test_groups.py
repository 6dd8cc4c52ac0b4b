import random

import pytest

import malcev as M
from conftest import (FiniteGroup, collector_for_quotient,
                      random_finite_presentation)
from malcev.freegroup import coords_to_word


HEIS = M.free_presentation(2, 2)


def test_normal_form_free_group():
    g = M.normal_form(HEIS, ((2, 1), (1, 1)))
    assert g.coords == (1, 1, 1)
    assert M.normal_form(HEIS, ()).is_identity()


def test_word_problem():
    assert M.word_problem(HEIS, ((1, 5), (1, -5)))
    assert not M.word_problem(HEIS, ((1, 1), (2, 1), (1, -1), (2, -1)))


def make_torsion_pres():
    b = M.build_hall_basis(2, 2)
    return M.make_quotient_presentation(b, ((3, 0, 0), (0, 3, 0), (0, 0, 3)))


def test_normal_form_reduces_torsion_coordinates():
    pres = make_torsion_pres()
    rng = random.Random(2)
    for _ in range(50):
        g = M.element(pres, tuple(rng.randint(-20, 20) for _ in range(3)))
        for col, e in pres.torsion.items():
            assert 0 <= g.coords[col - 1] < e


def test_reduction_respects_collector_arithmetic():
    """The series-based normal form agrees with the independent
    collection-from-the-left engine."""
    pres = make_torsion_pres()
    col = collector_for_quotient(pres)
    rng = random.Random(4)
    for _ in range(60):
        word = tuple((rng.randint(1, 3), rng.randint(-5, 5))
                     for _ in range(rng.randint(0, 6)))
        assert M.normal_form(pres, word).coords == col.collect(word)


def test_group_operations_in_finite_quotient():
    rng = random.Random(9)
    pres = random_finite_presentation(rng, 2, 2)
    fg = FiniteGroup(pres)
    for _ in range(40):
        u = M.element(pres, rng.choice(fg.elements))
        v = M.element(pres, rng.choice(fg.elements))
        assert M.mult(u, v).coords == fg.mult(u.coords, v.coords)
        assert M.mult(u, M.inverse(u)).is_identity()
        k = rng.randint(-7, 7)
        p = M.power(u, k)
        acc = M.identity(pres)
        step = u if k >= 0 else M.inverse(u)
        for _ in range(abs(k)):
            acc = M.mult(acc, step)
        assert p == acc


def test_mixed_presentations_rejected():
    other = make_torsion_pres()
    u = M.identity(HEIS)
    v = M.identity(other)
    with pytest.raises(M.RejectedInput):
        M.mult(u, v)


def test_element_validates_length_and_letters():
    with pytest.raises(M.RejectedInput):
        M.element(HEIS, (1, 2))
    with pytest.raises(M.RejectedInput):
        M.normal_form(HEIS, ((9, 1),))


@pytest.mark.parametrize("call", [
    lambda: M.element(HEIS, (0.5, 0, 0)),
    lambda: M.element(HEIS, (2.0 ** 60, 1, 0)),
    lambda: M.element(HEIS, (True, 0, 0)),
    lambda: M.power(M.element(HEIS, (1, 1, 0)), 2.5),
    lambda: M.power(M.element(HEIS, (1, 1, 0)), 2.0),
    lambda: M.normal_form(HEIS, ((1, 0.5),)),
    lambda: M.normal_form(HEIS, ((1.0, 1),)),
    lambda: M.coordinate_matrix(HEIS, [(1, 0, 0.0)]),
    lambda: M.make_quotient_presentation(HEIS.basis, [(3.0, 0, 0)]),
    lambda: M.power_problem(HEIS, *[M.element(HEIS, (2, 0, 0))] * 2, (0, 2.0)),
    lambda: M.power_problem(HEIS, *[M.element(HEIS, (2, 0, 0))] * 2, (0.0, 2)),
    lambda: M.power_problem(HEIS, *[M.element(HEIS, (2, 0, 0))] * 2, (0, True)),
    lambda: M.extgcd_bounded([2.0, 4]),
    lambda: M.extgcd_bounded([True, 2]),
], ids=["half", "float-2**60", "bool", "power-2.5", "power-2.0",
        "word-exponent", "word-letter", "matrix", "relators",
        "progression-step-2.0", "progression-offset-0.0",
        "progression-step-bool", "extgcd-2.0", "extgcd-bool"])
def test_non_integer_input_is_rejected(call):
    # Coordinates and exponents are exact integers; a float would give an
    # inexact "element", such as (2.5, 2.5, 1.0) for (1, 1, 0) ** 2.5.
    with pytest.raises(M.RejectedInput, match="integer"):
        call()


def test_power_huge_exponent_exact():
    g = M.element(HEIS, (1, 1, 0))
    k = 1 << 70
    assert M.power(g, k).coords == (k, k, k * (k - 1) // 2)


def test_word_roundtrip():
    pres = make_torsion_pres()
    rng = random.Random(6)
    for _ in range(30):
        g = M.element(pres, tuple(rng.randint(-9, 9) for _ in range(3)))
        assert M.normal_form(pres, coords_to_word(g.coords)) == g
