"""Extended gcd with explicitly bounded Bezout coefficients.

The multi-argument version guarantees |x_i| <= (n+1) * A**2 where A is the
largest absolute value of the gcd-divided inputs.  The coefficient reduction
that establishes the bound is performed step by step and every intermediate
quantity is recorded in a trace object so the combinatorial identities behind
the bound can be checked from the outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class RejectedInput(ValueError):
    """Raised when an argument violates a documented precondition."""


class InternalConsistencyError(AssertionError):
    """An invariant the algorithms guarantee failed; indicates a bug."""


def gcd_vector(a: list[int] | tuple[int, ...]) -> int:
    """gcd of arbitrarily many integers; 0 for the empty or all-zero vector."""
    g = 0
    for v in a:
        g = math.gcd(g, v)
    return g


def _min_abs_residue(r: int, s: int) -> tuple[int, int]:
    """Candidates r and r-s straddle zero; pick the one with smaller absolute
    value, preferring the non-negative one on ties."""
    if r < s - r:
        return r, r - s
    if s - r < r:
        return r - s, r
    return r, r - s


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
    if a == 0:
        return g, 0, 1 if b > 0 else -1
    # Solutions are x = x0 + t*(b/g); minimize |x| over that progression.
    s = abs(b) // g
    x0 = pow((a // g) % s, -1, s) if s > 1 else 0
    r = x0 % s if s > 1 else 0
    if s == 1:
        x = 0
    else:
        x, alt = _min_abs_residue(r, s)
        if abs(x) > bound:  # cannot happen; guard for the canonical claim
            x = alt
    y = (g - a * x) // b
    if a * x + b * y != g or abs(x) > bound or abs(y) > bound:
        raise InternalConsistencyError(
            f"pair combination {x}, {y} of {a}, {b} is not bounded to the gcd")
    return g, x, y


@dataclass
class BoundedCombinationTrace:
    """Full intermediate state of one bounded extended-gcd computation.

    All vectors refer to the normalized inputs: signs folded in, zero entries
    dropped and the gcd divided out.
    """

    a: tuple[int, ...] = ()
    A: int = 0
    d: tuple[int, ...] = ()            # d_0 = 0, d_i = gcd(d_{i-1}, a_i)
    yz: tuple[tuple[int, int], ...] = ()
    x_raw: tuple[int, ...] = ()
    p_prime: tuple[int, ...] = ()
    n_prime: tuple[int, ...] = ()
    P_prime: tuple[int, ...] = ()
    N_prime: tuple[int, ...] = ()
    D: int = 0
    p: tuple[int, ...] = ()
    n: tuple[int, ...] = ()
    P: tuple[int, ...] = ()
    N: tuple[int, ...] = ()
    overlap: dict[tuple[int, int], int] = field(default_factory=dict)
    y_pair: dict[tuple[int, int], int] = field(default_factory=dict)
    x_final: tuple[int, ...] = ()
    degenerate: bool = False


def _prefix_sums(v: list[int]) -> list[int]:
    out, acc = [], 0
    for x in v:
        acc += x
        out.append(acc)
    return out


def _reduction_tables(a: list[int], x: list[int], A: int):
    """Compute every intermediate table of the coefficient reduction."""
    n = len(a)
    A2 = A * A
    pos = [i for i in range(n) if x[i] > 0]
    neg = [i for i in range(n) if x[i] < 0]
    p_prime = [max(0, (x[i] * a[i]) // A2) for i in range(n)]
    n_prime = [max(0, (-x[i] * a[i]) // A2) for i in range(n)]
    P_prime = _prefix_sums(p_prime)
    N_prime = _prefix_sums(n_prime)
    D = N_prime[-1] - P_prime[-1]
    p = list(p_prime)
    n_adj = list(n_prime)
    # Balance the totals: bump the first D members of the positive support
    # (resp. -D of the negative support); the prefix-sum lemma guarantees
    # enough members exist.
    if D > 0:
        for i in pos[:D]:
            p[i] += 1
    elif D < 0:
        for i in neg[:-D]:
            n_adj[i] += 1
    P = _prefix_sums(p)
    N = _prefix_sums(n_adj)
    if P[-1] != N[-1]:
        raise InternalConsistencyError("balanced prefix totals differ")
    # Interval-overlap counts: index i in the positive support occupies the
    # interval (P_{i-1}, P_i], index j in the negative support (N_{j-1}, N_j].
    overlap: dict[tuple[int, int], int] = {}
    y_pair: dict[tuple[int, int], int] = {}
    for j in neg:
        Nj0 = N[j - 1] if j > 0 else 0
        Nj1 = N[j]
        for i in pos:
            Pi0 = P[i - 1] if i > 0 else 0
            Pi1 = P[i]
            ov = min(Pi1, Nj1) - max(Pi0, Nj0)
            if ov > 0:
                overlap[(j, i)] = ov
                y_pair[(j, i)] = (ov * A2) // (a[i] * a[j])
    x_final = list(x)
    for (j, i), y in y_pair.items():
        x_final[i] -= y * a[j]
        x_final[j] += y * a[i]
    return (p_prime, n_prime, P_prime, N_prime, D, p, n_adj, P, N,
            overlap, y_pair, x_final)


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
    x_final = _reduction_tables(a, x, A)[-1]
    _check_combination(x_final, a, 1, (len(a) + 1) * A * A)
    return x_final


def extgcd_bounded(a: list[int] | tuple[int, ...]) -> tuple[int, list[int], BoundedCombinationTrace]:
    """Return (g, x, trace) with sum(x_i * a_i) == g == gcd(a) and
    |x_i| <= (n+1) * max(|a_i| / g, 1)**2.
    """
    a = list(a)
    g = gcd_vector(a)
    if g == 0:
        return 0, [0] * len(a), BoundedCombinationTrace(degenerate=True)

    support = [i for i, v in enumerate(a) if v != 0]
    norm = [abs(a[i]) // g for i in support]
    signs = [1 if a[i] > 0 else -1 for i in support]
    n = len(norm)
    A = max(norm)

    d = [0]
    yz: list[tuple[int, int]] = []
    for v in norm:
        _, y, z = extgcd_pair_bounded(d[-1], v)
        d.append(math.gcd(d[-1], v))
        yz.append((y, z))
    if d[-1] != 1:
        raise InternalConsistencyError("normalized entries are not coprime")

    x_raw = []
    for i in range(n):
        prod = yz[i][1]
        for j in range(i + 1, n):
            prod *= yz[j][0]
        x_raw.append(prod)
    _check_combination(x_raw, norm, 1)

    if A == 1:
        # All normalized entries are 1; x_raw is a unit vector and already
        # meets the bound.  The reduction formulas (and the prefix-sum lemma
        # behind them) assume A >= 2, so the reduction tables stay empty.
        zeros = (0,) * n
        trace = BoundedCombinationTrace(
            a=tuple(norm), A=A, d=tuple(d), yz=tuple(yz),
            x_raw=tuple(x_raw),
            p_prime=zeros, n_prime=zeros, P_prime=zeros, N_prime=zeros,
            D=0, p=zeros, n=zeros, P=zeros, N=zeros,
            x_final=tuple(x_raw))
        x_final = x_raw
    else:
        (p_prime, n_prime, P_prime, N_prime, D, p, n_adj, P, N,
         overlap, y_pair, x_final) = _reduction_tables(norm, x_raw, A)
        trace = BoundedCombinationTrace(
            a=tuple(norm), A=A, d=tuple(d), yz=tuple(yz),
            x_raw=tuple(x_raw),
            p_prime=tuple(p_prime), n_prime=tuple(n_prime),
            P_prime=tuple(P_prime), N_prime=tuple(N_prime), D=D,
            p=tuple(p), n=tuple(n_adj), P=tuple(P), N=tuple(N),
            overlap=overlap, y_pair=y_pair, x_final=tuple(x_final))

    _check_combination(x_final, norm, 1, (n + 1) * A * A)

    x = [0] * len(a)
    for k, i in enumerate(support):
        x[i] = signs[k] * x_final[k]
    _check_combination(x, a, g)
    return g, x, trace


def _check_combination(x, a, g: int, bound: int | None = None) -> None:
    """Raise unless sum(x_i * a_i) == g and, given a bound, every |x_i| is
    within it."""
    if sum(xi * ai for xi, ai in zip(x, a)) != g:
        raise InternalConsistencyError(f"combination does not give {g}")
    if bound is not None and any(abs(v) > bound for v in x):
        raise InternalConsistencyError(f"combination exceeds the bound {bound}")
