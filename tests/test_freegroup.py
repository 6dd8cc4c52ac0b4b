import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import malcev as M
from conftest import (ACCEPTED, MAT_ID, SHIPPED, mat_inv, mat_mul, mat_of_coords,
                      mat_of_word, mat_pow, series_coords_pow,
                      structure_relations)
from malcev.extgcd import RejectedInput
from malcev.freegroup import (SHIPPED_RANKS, build_hall_basis,
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
            assert b.weights[bc.left] + b.weights[bc.right] == bc.weight
            left = b.letters[bc.left - 1]
            if left.weight > 1:
                assert left.right <= bc.right


def test_invalid_parameters_rejected():
    # (9, 2) has 127 letters but ships no tables; (9, 9) and (1, 129) had
    # more than 128 letters
    for c, r in ((0, 2), (9, 2), (9, 9), (1, 129)):
        with pytest.raises(RejectedInput):
            build_hall_basis(c, r)


@pytest.mark.parametrize("c,r", [(True, 2), (1, True), (2.0, 2), ("2", 2),
                                 (2, 2.0)],
                         ids=["bool-class", "bool-rank", "float-class",
                              "str-class", "float-rank"])
def test_class_and_rank_must_be_int(c, r):
    # True equals 1 and hashes like it, so it is refused even after (1, 2)
    # is cached only because the cache is typed.  A refused call caches
    # nothing, and the basis of (1, 2) keeps an int class.
    build_hall_basis(1, 2)
    cached = build_hall_basis.cache_info().currsize
    with pytest.raises(RejectedInput, match="integers"):
        build_hall_basis(c, r)
    assert build_hall_basis.cache_info().currsize == cached
    assert type(build_hall_basis(1, 2).c) is int
    assert M.free_presentation(1, 2).describe() == "group c=1 r=2"


def witt(n, r):
    """Number of basic commutators of weight n in r generators:
    (1/n)·Σ_{d | n} μ(d)·r^(n/d)."""
    def mobius(d):
        out, p = 1, 2
        while d > 1:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                out = -out
            p += 1
        return out

    return sum(mobius(d) * r ** (n // d)
               for d in range(1, n + 1) if n % d == 0) // n


def test_the_grid_is_every_basis_of_rank_2_to_9_within_128_letters():
    # The library accepts every (c, r) of rank 2 to 9 with at most 128
    # letters, except (9, 2), and rank 1 at any class; tables ship for those
    # of top weight >= 2.  The grid is closed under c -> c - 1.
    fits = {(c, r) for c in range(1, 12) for r in range(2, 10)
            if sum(witt(w, r) for w in range(1, c + 1)) <= 128}
    assert set(ACCEPTED) == (fits - {(9, 2)}) | {(1, 1)}
    assert len(ACCEPTED) == 30
    for c, top in SHIPPED_RANKS.items():
        assert c == 1 or SHIPPED_RANKS[c - 1] >= top
    for c in range(1, 12):
        for r in range(1, 12):
            if r == 1 or (c, r) in ACCEPTED:
                assert build_hall_basis(c, r).m == sum(
                    witt(w, r) for w in range(1, c + 1 if r > 1 else 2))
            else:
                with pytest.raises(RejectedInput):
                    build_hall_basis(c, r)


# Each class-c basis with shipped tables and the class-(c - 1) one of its
# rank, whose arithmetic is built in at class 1: entries in [-50, 50] and of
# 64 bits.
@pytest.mark.parametrize("c,r", SHIPPED)
def test_lower_class_tables_are_truncations(c, r):
    # The class-(c - 1) letters are a prefix of the class-c ones, and the
    # coordinates of u·v and u^e of weight < c depend only on those of u
    # and v of weight < c, so class c - 1's polynomials are the truncation
    # of class c's.  This checks every shipped table against the arithmetic
    # a class below, a table or, at class 1, the built-in sum and multiple,
    # with no derivation.
    big, small = build_hall_basis(c, r), build_hall_basis(c - 1, r)
    k = small.m
    assert big.letters[:k] == small.letters
    rng = random.Random(100 * c + r)

    def vector():
        bits = rng.choice((0, 64))
        return tuple(rng.randint(-50, 50) if not bits else
                     rng.choice((-1, 1)) * rng.getrandbits(bits)
                     for _ in range(big.m))

    for _ in range(3):
        u, v = vector(), vector()
        assert big.mult(u, v)[:k] == small.mult(u[:k], v[:k]), (u, v)
        for e in (-1, 2, 7, -(1 << 40)):
            assert big.pow_polynomials(u, e)[:k] == \
                small.pow_polynomials(u[:k], e), (u, e)


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
        step = u if e >= 0 else series_coords_pow(b, u, -1)
        for _ in range(abs(e)):
            acc = b.mult(acc, step)
        assert acc == direct


@pytest.mark.parametrize("c,r", [(3, 2), (5, 3)])
def test_commuting_power_makes_no_multiplication(c, r, monkeypatch):
    basis = build_hall_basis(c, r)
    calls = []
    for kind in ("mult", "pow_polynomials"):
        f = getattr(basis, kind)
        monkeypatch.setitem(basis.__dict__, kind,
                            lambda *a, f=f, kind=kind: calls.append(kind) or f(*a))
    w = basis.top_weight
    top = [i for i in range(basis.m) if basis.weights[i + 1] == w]

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
    assert calls == ["pow_polynomials"]


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
    heavy = [i for i in range(1, basis.m + 1) if basis.weights[i] >= 3]
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


def random_letter(rng, basis):
    """A letter of a uniformly random weight, so that the few light letters
    of a large basis come up as often as the many heavy ones."""
    w = rng.randint(1, basis.top_weight)
    return rng.choice([i for i in range(1, basis.m + 1)
                       if basis.weights[i] == w])


@pytest.mark.parametrize("c,r", ACCEPTED)
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
