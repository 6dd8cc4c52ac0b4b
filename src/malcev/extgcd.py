"""Extended gcd with explicitly bounded Bezout coefficients.

The multi-argument version guarantees |x_i| <= (n+1) * A**2 where A is the
largest absolute value of the gcd-divided inputs (Myasnikov and Weiss).  It
chains the bounded pair gcd through the prefix gcds d_i and then reduces the
resulting coefficients.  That reduction, which `reduce_coefficients` also
exposes, is one function: it records every intermediate quantity in a trace
object, so the combinatorial identities behind the bound can be checked from
the outside, and it checks the bound itself.
"""

from __future__ import annotations

import math
from itertools import accumulate


class RejectedInput(ValueError):
    """Raised when an argument violates a documented precondition."""


class InternalConsistencyError(AssertionError):
    """An invariant the algorithms guarantee failed; indicates a bug."""


def extgcd_pair_bounded(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) and
    |x|, |y| <= max(|a|, |b|, 1).

    The output is canonical: among all pairs within the bound, |x| is minimal
    and ties are broken towards x >= 0.
    """
    if a == 0 and b == 0:
        return 0, 0, 0
    g = math.gcd(a, b)
    bound = max(abs(a), abs(b), 1)
    if b == 0:
        return g, 1 if a > 0 else -1, 0
    # x = (a/g)^-1 mod s, as the residue of least |x| (non-negative on ties);
    # pow(., -1, 1) is 0, so s = 1, and with it a = 0, needs no branch.
    s = abs(b) // g
    x = pow(a // g, -1, s)
    if 2 * x > s:
        x -= s
    y = (g - a * x) // b
    if a * x + b * y != g or abs(x) > bound or abs(y) > bound:
        raise InternalConsistencyError(
            f"pair combination {x}, {y} of {a}, {b} is not bounded to the gcd")
    return g, x, y


class BoundedCombinationTrace:
    """Full intermediate state of one bounded extended-gcd computation.

    All vectors refer to the normalized inputs: signs folded in, zero entries
    dropped and the gcd divided out.  At A = 1 every a_i is 1, so a
    coefficient vector with no negative entry is a unit vector and is its
    own reduction: the reduction tables, p_prime through y_pair, stay empty
    and x_final == x_raw.
    """

    def __init__(self, a: tuple[int, ...] = (), A: int = 0,
                 d: tuple[int, ...] = (),
                 yz: tuple[tuple[int, int], ...] = (),
                 x_raw: tuple[int, ...] = (), degenerate: bool = False):
        self.a = a
        self.A = A
        self.d = d              # d_0 = 0, d_i = gcd(d_{i-1}, a_i)
        self.yz = yz
        self.x_raw = x_raw
        # The reduction tables, which `_reduction` fills.
        self.p_prime = self.n_prime = self.P_prime = self.N_prime = ()
        self.D = 0
        self.p = self.n = self.P = self.N = ()
        self.overlap: dict[tuple[int, int], int] = {}
        self.y_pair: dict[tuple[int, int], int] = {}
        self.x_final: tuple[int, ...] = ()
        self.degenerate = degenerate


def _reduction(a: list[int], x: list[int], A: int, d=(),
               yz=()) -> BoundedCombinationTrace:
    """Trace of the reduction of x, with sum(x_i * a_i) == 1, all a_i > 0
    and A == max(a), to x_final with |x_final_i| <= (n+1) * A**2.  Raises
    InternalConsistencyError unless x_final is such a combination."""
    A2 = A * A
    t = BoundedCombinationTrace(a=tuple(a), A=A, d=tuple(d), yz=tuple(yz),
                                x_raw=tuple(x))
    x_final = list(x)
    # At A = 1 every a_i is 1, so an x with no negative entry is a unit
    # vector and its own reduction; the balancing below would need one.
    if A > 1 or min(x) < 0:
        pos = [i for i, v in enumerate(x) if v > 0]
        neg = [i for i, v in enumerate(x) if v < 0]
        t.p_prime = tuple(max(0, (v * ai) // A2) for v, ai in zip(x, a))
        t.n_prime = tuple(max(0, (-v * ai) // A2) for v, ai in zip(x, a))
        t.P_prime = tuple(accumulate(t.p_prime))
        t.N_prime = tuple(accumulate(t.n_prime))
        t.D = t.N_prime[-1] - t.P_prime[-1]
        # Balance the totals: bump the first D members of the positive
        # support (resp. -D of the negative support); the prefix-sum lemma
        # guarantees enough members exist.
        p, n = list(t.p_prime), list(t.n_prime)
        if t.D > 0:
            for i in pos[:t.D]:
                p[i] += 1
        else:
            for j in neg[:-t.D]:
                n[j] += 1
        t.p, t.n = tuple(p), tuple(n)
        t.P, t.N = tuple(accumulate(p)), tuple(accumulate(n))
        if t.P[-1] != t.N[-1]:
            raise InternalConsistencyError("balanced prefix totals differ")
        # Interval-overlap counts: index i in the positive support occupies
        # the interval (P_{i-1}, P_i], index j in the negative support
        # (N_{j-1}, N_j].
        for j in neg:
            Nj0 = t.N[j - 1] if j > 0 else 0
            for i in pos:
                Pi0 = t.P[i - 1] if i > 0 else 0
                ov = min(t.P[i], t.N[j]) - max(Pi0, Nj0)
                if ov > 0:
                    y = (ov * A2) // (a[i] * a[j])
                    t.overlap[(j, i)] = ov
                    t.y_pair[(j, i)] = y
                    x_final[i] -= y * a[j]
                    x_final[j] += y * a[i]
    t.x_final = tuple(x_final)
    _check_combination(x_final, a, 1, (len(a) + 1) * A2)
    return t


def reduce_coefficients(a: list[int], x: list[int], A: int) -> list[int]:
    """Shrink Bezout coefficients to |x_i| <= (n+1)*A**2.

    Requires sum(x_i * a_i) == 1, all a_i > 0 and A == max(a_i).
    """
    if not a or len(a) != len(x):
        raise RejectedInput("a and x must be nonempty vectors of equal length")
    if any(v <= 0 for v in a):
        raise RejectedInput("all a_i must be positive")
    if A != max(a):
        raise RejectedInput("A must equal max(a)")
    if sum(xi * ai for xi, ai in zip(x, a)) != 1:
        raise RejectedInput("sum x_i * a_i must equal 1")
    return list(_reduction(a, x, A).x_final)


def extgcd_bounded(a: list[int] | tuple[int, ...]) -> tuple[int, list[int], BoundedCombinationTrace]:
    """Return (g, x, trace) with sum(x_i * a_i) == g == gcd(a) and
    |x_i| <= (n+1) * max(|a_i| / g, 1)**2.
    """
    a = list(a)
    g = math.gcd(*a)
    if g == 0:
        return 0, [0] * len(a), BoundedCombinationTrace(degenerate=True)

    support = [i for i, v in enumerate(a) if v != 0]
    norm = [abs(a[i]) // g for i in support]
    d = [0]
    yz: list[tuple[int, int]] = []
    for v in norm:
        d_next, y, z = extgcd_pair_bounded(d[-1], v)
        d.append(d_next)
        yz.append((y, z))
    if d[-1] != 1:
        raise InternalConsistencyError("normalized entries are not coprime")

    # x_raw_i = z_i * y_{i+1} ... y_n, as one suffix product.
    x_raw, suffix = [], 1
    for y, z in reversed(yz):
        x_raw.append(z * suffix)
        suffix *= y
    x_raw.reverse()
    _check_combination(x_raw, norm, 1)

    trace = _reduction(norm, x_raw, max(norm), d, yz)
    x = [0] * len(a)
    for i, v in zip(support, trace.x_final):
        x[i] = v if a[i] > 0 else -v
    _check_combination(x, a, g)
    return g, x, trace


def _check_combination(x, a, g: int, bound: int | None = None) -> None:
    """Raise unless sum(x_i * a_i) == g and, given a bound, every |x_i| is
    within it."""
    if sum(xi * ai for xi, ai in zip(x, a)) != g:
        raise InternalConsistencyError(f"combination does not give {g}")
    if bound is not None and any(abs(v) > bound for v in x):
        raise InternalConsistencyError(f"combination exceeds the bound {bound}")
