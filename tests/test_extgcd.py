import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reduce_coefficients
from malcev.extgcd import (InternalConsistencyError, RejectedInput,
                           extgcd_bounded, extgcd_pair_bounded)


def oracle_pair(a, b):
    """Exhaustive canonical bounded solution: minimal |x|, ties toward
    x >= 0, subject to |x|, |y| <= max(|a|, |b|, 1)."""
    if a == 0 and b == 0:
        return 0, 0, 0
    g = math.gcd(a, b)
    bound = max(abs(a), abs(b), 1)
    candidates = []
    for x in range(-bound, bound + 1):
        rest = g - a * x
        if b == 0:
            if rest == 0:
                candidates.append((x, 0))
            continue
        if rest % b == 0 and abs(rest // b) <= bound:
            candidates.append((x, rest // b))
    x, y = min(candidates, key=lambda p: (abs(p[0]), p[0] < 0))
    return g, x, y


def test_pair_gcd_matches_exhaustive_search():
    for a in range(-40, 41):
        for b in range(-40, 41):
            assert extgcd_pair_bounded(a, b) == oracle_pair(a, b)


def test_pair_gcd_identity_and_bound_large():
    rng = random.Random(7)
    for _ in range(2000):
        a = rng.randint(-10**9, 10**9)
        b = rng.randint(-10**9, 10**9)
        g, x, y = extgcd_pair_bounded(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g
        bound = max(abs(a), abs(b), 1)
        assert abs(x) <= bound and abs(y) <= bound


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=16))
@settings(max_examples=300)
def test_vector_gcd_identity_and_bound(a):
    g, x, _ = extgcd_bounded(a)
    assert g == math.gcd(*a)
    assert sum(xi * ai for xi, ai in zip(x, a)) == g
    if g:
        A = max(abs(v) // g for v in a)
        n = sum(1 for v in a if v)
        assert all(abs(v) <= (n + 1) * A * A for v in x)
    else:
        assert all(v == 0 for v in x)


def test_vector_gcd_known_combination():
    g, x, trace = extgcd_bounded([6, 10, 15])
    assert g == 1
    assert trace.x_raw == (-14, 7, 1)
    assert sum(xi * ai for xi, ai in zip(x, [6, 10, 15])) == 1


def test_vector_gcd_equal_entries():
    g, x, _ = extgcd_bounded([5, 5])
    assert g == 5
    assert 5 * x[0] + 5 * x[1] == 5
    assert all(abs(v) <= 3 for v in x)  # (n+1) * A**2 with A = 1


def test_all_ones_and_zeros():
    g, x, trace = extgcd_bounded([0, 0, 0])
    assert (g, x) == (0, [0, 0, 0])
    assert trace.degenerate
    g, x, trace = extgcd_bounded([1, 1, 1, 1])
    assert g == 1 and sum(x) == 1
    check_trace([1, 1, 1, 1])
    check_trace([0, -3, 3, 0])
    g, x, _ = extgcd_bounded([0, -7, 0])
    assert g == 7 and x == [0, -1, 0]


def check_trace(a):
    g, x, t = extgcd_bounded(a)
    if g == 0:
        return
    assert all(t.d[i + 1] == math.gcd(t.d[i], v) for i, v in enumerate(t.a))
    if t.A == 1:
        # x_raw is a unit vector, its own reduction, so the tables stay empty
        assert t.x_final == t.x_raw
        assert t.D == 0 and not any((t.p_prime, t.n_prime, t.P_prime,
                                     t.N_prime, t.p, t.n, t.P, t.N,
                                     t.overlap, t.y_pair))
        return
    assert reduce_coefficients(list(t.a), list(t.x_raw), t.A) == list(t.x_final)
    n = len(t.a)
    pos = sum(1 for v in t.x_raw if v > 0)
    neg = sum(1 for v in t.x_raw if v < 0)
    assert t.P[-1] == t.N[-1]
    assert t.P_prime[-1] - t.N_prime[-1] <= neg
    assert t.N_prime[-1] - t.P_prime[-1] <= pos
    # overlap row/column sums recover the adjusted counters
    for i in range(n):
        if t.x_raw[i] > 0:
            assert sum(v for (j, i2), v in t.overlap.items() if i2 == i) == t.p[i]
        if t.x_raw[i] < 0:
            assert sum(v for (j, i2), v in t.overlap.items() if j == i) == t.n[i]


@given(st.lists(st.integers(-500, 500), min_size=1, max_size=32))
@settings(max_examples=300)
def test_trace_lemmas(a):
    check_trace(a)


def test_reduce_coefficients_contract():
    a = [6, 10, 15]
    x = [1000001 * 5 - 14, -1000001 * 3 + 7, 1]  # still sums to 1
    assert sum(p * q for p, q in zip(a, x)) == 1
    out = reduce_coefficients(a, x, 15)
    assert sum(p * q for p, q in zip(a, out)) == 1
    assert all(abs(v) <= 4 * 15 * 15 for v in out)
    with pytest.raises(RejectedInput):
        reduce_coefficients([2, 3], [1, 1], 3)  # identity fails
    with pytest.raises(RejectedInput):
        reduce_coefficients([2, -3], [-1, -1], 3)  # negative entry
    with pytest.raises(RejectedInput):
        reduce_coefficients([2, 3], [-1, 1], 5)  # wrong A


def test_reduce_coefficients_at_a_equal_one():
    # Every a_i is 1: a coefficient vector with no negative entry is a unit
    # vector and already reduced; one with a negative entry reduces to one.
    assert reduce_coefficients([1], [1], 1) == [1]
    assert reduce_coefficients([1, 1], [1, 0], 1) == [1, 0]
    assert reduce_coefficients([1, 1], [5, -4], 1) == [0, 1]


def test_corrupt_combination_raises(monkeypatch):
    import malcev.extgcd as E

    def corrupt(a, b):
        g, x, y = extgcd_pair_bounded(a, b)
        return g, x + 1, y

    monkeypatch.setattr(E, "extgcd_pair_bounded", corrupt)
    with pytest.raises(InternalConsistencyError):
        E.extgcd_bounded([6, 10, 15])
