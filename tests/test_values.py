"""The library's classes are plain classes: the ones that are values compare
and hash by value, and each object owns its fields.  The package's public
names are pinned."""

import pytest

import malcev as M
from malcev.decisions import _layer

# The Heisenberg group modulo a1^2 and its normal closure.
SQUARES = ((2, 0, 0), (0, 0, 2))


def test_public_names_are_pinned():
    # A name that leaves or joins the public surface shows in this list.
    assert sorted(M.__all__) == [
        "BasicCommutator", "BoundedCombinationTrace", "ConjugacyAnswer",
        "CoordinateMatrix", "ExpWord", "FullFormMatrix", "GroupElement",
        "HallBasis", "HomSpec", "MembershipWitness", "NilpotentPresentation",
        "NoPower", "NotInImage", "QuotientPresentation", "RejectedInput",
        "SizeCapExceeded", "build_hall_basis", "centralizer", "conjugacy",
        "consistency_check", "coordinate_matrix", "coords_to_word", "element",
        "element_order", "eval_free", "express_in_original_generators",
        "extgcd_bounded", "extgcd_pair_bounded", "free_presentation",
        "from_finite_presentation", "full_form", "identity", "inverse",
        "kernel_and_preimage", "make_quotient_presentation", "membership",
        "mult", "normal_form", "power", "power_problem", "reduce_coords",
        "subgroup_presentation", "torsion_bound", "word_problem"]
    # The submodules are attributes, not exported names.
    assert M.decisions.conjugacy is M.conjugacy
    assert M.freegroup.HallBasis is M.HallBasis


def test_free_presentations_are_equal_values():
    p, q = M.free_presentation(2, 2), M.free_presentation(2, 2)
    assert p is not q
    assert p == q and hash(p) == hash(q)
    assert p != M.free_presentation(2, 3)
    assert p != M.make_quotient_presentation(p.basis, SQUARES)
    basis = p.basis
    copy = M.HallBasis(2, 2, tuple(M.BasicCommutator(x.weight, x.left, x.right)
                                   for x in basis.letters))
    assert copy is not basis
    assert copy == basis and hash(copy) == hash(basis)
    form, _ = M.full_form(p, M.coordinate_matrix(p, SQUARES))
    assert form.rows is not SQUARES
    assert form == M.FullFormMatrix(SQUARES)
    assert hash(form) == hash(M.FullFormMatrix(SQUARES))


def test_layer_hits_its_cache_for_an_equal_presentation():
    cubes = [((1, 3),), ((2, 3),)]
    basis = M.build_hall_basis(3, 2)
    p = M.from_finite_presentation(basis, cubes)
    q = M.from_finite_presentation(basis, cubes)
    assert p is not q and p == q
    layer = _layer(p, 2)
    hits = _layer.cache_info().hits
    assert _layer(q, 2) is layer
    assert _layer.cache_info().hits == hits + 1


def test_elements_of_equal_presentations_are_equal_and_multiply():
    p, q = M.free_presentation(2, 2), M.free_presentation(2, 2)
    g, h = M.element(p, (1, 2, 3)), M.element(q, (1, 2, 3))
    assert g == h and hash(g) == hash(h)
    assert g != M.element(p, (1, 2, 4))
    assert M.mult(g, h) == M.power(g, 2)
    quotient = M.make_quotient_presentation(p.basis, SQUARES)
    for other in (M.free_presentation(2, 3), quotient):
        with pytest.raises(M.RejectedInput):
            M.mult(g, M.identity(other))


def test_traces_do_not_share_their_tables():
    s, t = M.BoundedCombinationTrace(), M.BoundedCombinationTrace()
    s.overlap[(0, 1)] = s.y_pair[(0, 1)] = 1
    assert t.overlap == {} and t.y_pair == {}
    _, _, u = M.extgcd_bounded([6, 10, 15])
    _, _, v = M.extgcd_bounded([6, 10, 15])
    assert u.overlap is not v.overlap and u.y_pair is not v.y_pair

