"""Seeded inputs, queries and answer checkers of the in-process workloads.

A workload is a plan: a list of steps made only of plain data (coordinate
vectors, integers and exponent words).  `run.py` builds the plan, sends it to
a fresh worker process that answers it, and checks the answers itself, so the
answering process makes no library call between its queries and shares no
cache or memory with the oracle.

A step holds one or more queries, each a call into the public `malcev` API
that is timed on its own.  A query receives the answers of the earlier
queries of its step, so identities such as (uv)w = u(vw) need no extra
library work in the answering process.  The checker of a step returns None
or the reason the answers are wrong.

`malcev` is imported inside the functions, never at module level, so that a
process can start its set-up clock before the library is imported.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Step:
    kind: str
    pres: int                    # index into the workload's presentations
    elements: list = field(default_factory=list)  # coordinate vectors
    numbers: list = field(default_factory=list)
    words: list = field(default_factory=list)
    expect: Any = None           # checker-only data, never sent to the worker

    def wire(self) -> list:
        return [self.kind, self.pres, self.elements, self.numbers, self.words]


@dataclass
class Plan:
    presentations: list
    steps: list
    oracles: dict = field(default_factory=dict)

    def label(self, step: Step) -> str:
        basis = self.presentations[step.pres].basis
        return f"{step.kind}@{basis.c},{basis.r}"


def encode(x):
    """An answer as plain data: elements become coordinate lists."""
    if hasattr(x, "coords"):
        return list(x.coords)
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    return x


def queries(M, pres, kind: str, elements: list, numbers: list, words: list):
    """The timed library calls of one step, on already decoded inputs."""
    e, n, w = elements, numbers, [tuple(map(tuple, word)) for word in words]
    if kind == "consistency":
        return [lambda r: M.consistency_check(pres)]
    if kind == "member":
        return [lambda r: _member_query(M, pres, e[:2], e[2])]
    if kind == "centralizer":
        return [lambda r: M.centralizer(pres, e[0])]
    if kind == "conjugacy":
        return [lambda r: M.conjugacy(pres, e[0], e[1]).witness]
    if kind == "power_problem":
        return [lambda r: _power_or_none(M, pres, e[0], e[1])]
    if kind == "element_order":
        return [lambda r: M.element_order(e[0])]
    if kind == "power":
        return [lambda r: M.power(e[0], n[0]), lambda r: M.power(e[0], n[1]),
                lambda r: M.power(e[0], n[0] + n[1])]
    if kind == "assoc":
        u, v, x = e
        return [lambda r: M.mult(u, v), lambda r: M.mult(v, x),
                lambda r: M.mult(r[0], x), lambda r: M.mult(u, r[1])]
    if kind == "inverse":
        return [lambda r: M.inverse(e[0])]
    if kind == "normal_form":
        return [lambda r: M.normal_form(pres, w[0]),
                lambda r: M.normal_form(pres, w[1]),
                lambda r: M.normal_form(pres, w[0] + w[1])]
    if kind == "word_problem":
        return [lambda r: M.word_problem(pres, w[0] + inverse_word(w[0])),
                lambda r: M.word_problem(pres, w[0])]
    raise ValueError(kind)


def _member_query(M, pres, gens, h):
    matrix = M.coordinate_matrix(pres, [g.coords for g in gens], track=True)
    form, tracked = M.full_form(pres, matrix, track=True)
    witness = M.membership(pres, form, h)
    if witness is None:
        return form.rows, None, None
    return form.rows, witness.gamma, \
        M.express_in_original_generators(tracked, witness)


def _power_or_none(M, pres, g, h):
    try:
        return M.power_problem(pres, g, h)
    except M.NoPower:
        return None


def check(M, plan: Plan, step: Step, answers: list) -> str | None:
    """Why the answers of one step are wrong, or None."""
    pres = plan.presentations[step.pres]

    def el(coords):
        return M.element(pres, coords)
    e = [el(c) for c in step.elements]
    kind = step.kind
    if kind in ("power", "normal_form"):
        return check_equal(M.mult(el(answers[0]), el(answers[1])),
                           el(answers[2]), f"{kind}: identity fails")
    if kind == "assoc":
        return check_equal(answers[2], answers[3], "(uv)w differs from u(vw)")
    if kind == "inverse":
        return None if M.mult(e[0], el(answers[0])).is_identity() \
            else "u u^-1 is not the identity"
    if kind == "word_problem":
        return None if answers == [True, False] \
            else "word problem answered wrongly"
    if kind == "consistency":
        return check_consistency(answers)
    if pres.basis.c == 1:
        if kind == "element_order":
            return check_abelian_order(pres, e[0], answers)
        return check_abelian_power(M, pres, e[0], e[1], step.expect, answers)
    oracle = plan.oracles[step.pres]
    g = step.elements
    if kind == "member":
        return check_member(oracle, g[:2], g[2], answers)
    if kind == "centralizer":
        return check_centralizer(oracle, g[0], answers)
    if kind == "conjugacy":
        return check_conjugacy(oracle, g[0], g[1], answers)
    if kind == "power_problem":
        return check_power(oracle, g[0], g[1], answers)
    if kind == "element_order":
        return check_order(oracle, g[0], answers)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# finite_decisions: decision procedures on small finite quotients of F(2,2)
# and F(3,2), with query elements drawn from at most 243 elements, so inputs
# repeat.

# element_order trial-divides p*q up to the smaller prime, so a narrow range
# keeps the cost of these queries from depending on the seed.
LARGE_PRIME_RANGE = (30_000, 31_000)
# The known factoring hang (element_order trial-divides the torsion bound).
HANG_PRIMES = (1_000_000_007, 998_244_353)
_COMM = ((2, -1), (1, -1), (2, 1), (1, 1))  # [a2, a1]
# The quotients are fixed, so that the cost of a run does not depend on the
# seed; the seed draws the query elements, subgroups and exponents, and the
# large primes.
FINITE_QUOTIENTS = (
    ((2, 2), [((1, 3),), ((2, 3),)]),
    ((2, 2), [((1, 4),), ((2, 4),), _COMM * 2]),
    ((3, 2), [((1, 2),), ((2, 2),)]),
    ((3, 2), [((1, 3),), ((2, 3),)]),
)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if _is_prime(n):
            return n


def finite_relators(seed: int) -> list[tuple[tuple[int, int], list]]:
    """(class, rank) and relator words of every presentation."""
    rng = random.Random(seed)
    big_p = _prime_in(rng, *LARGE_PRIME_RANGE)
    big_q = _prime_in(rng, *LARGE_PRIME_RANGE)
    return [*FINITE_QUOTIENTS, ((1, 2), [((1, big_p),), ((2, big_q),)])]


def finite_setup(seed: int):
    import malcev as M
    out = []
    for (c, r), rels in finite_relators(seed):
        pres = M.from_finite_presentation(M.build_hall_basis(c, r), rels)
        one = M.element(pres, (1,) * pres.m)
        M.mult(one, one)
        out.append(pres)
    return out


class FiniteOracle:
    """Brute force over the elements of a finite quotient.

    The library is asked only for the product of each element with each
    generator and its inverse.  Every other product follows a path in that
    Cayley graph, along a shortest word of the right factor, so checking
    needs no further library call.  Elements are coordinate tuples."""

    def __init__(self, pres):
        import malcev as M
        self.pres = pres
        ranges = [range(pres.torsion[col]) for col in range(1, pres.m + 1)]
        self.elements = [tuple(t) for t in itertools.product(*ranges)]
        self._index = {g: i for i, g in enumerate(self.elements)}
        letters = []  # a1, a1^-1, a2, a2^-1, ...
        for k in range(pres.basis.r):
            a = M.element(pres, [int(j == k) for j in range(pres.m)])
            letters += [a, M.inverse(a)]
        self._right = [[self._index[M.mult(M.element(pres, g), a).coords]
                        for g in self.elements] for a in letters]
        self._word: dict[int, tuple] = {0: ()}  # elements[0] is the identity
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for s, table in enumerate(self._right):
                    j = table[i]
                    if j not in self._word:
                        self._word[j] = self._word[i] + (s,)
                        nxt.append(j)
            frontier = nxt
        self._memo: dict = {}

    def _mul(self, i: int, j: int) -> int:
        for s in self._word[j]:
            i = self._right[s][i]
        return i

    def _inv(self, i: int) -> int:
        j = 0
        for s in reversed(self._word[i]):
            j = self._right[s ^ 1][j]
        return j

    def mult(self, g, h) -> tuple:
        return self.elements[self._mul(self._index[tuple(g)],
                                       self._index[tuple(h)])]

    def inverse(self, g) -> tuple:
        return self.elements[self._inv(self._index[tuple(g)])]

    def power(self, g, e: int) -> tuple:
        cycle = list(self.powers(g))
        return cycle[e % len(cycle)]

    def product(self, factors) -> tuple:
        """g_1^e_1 ... g_n^e_n for (g_i, e_i) in factors."""
        acc = self.elements[0]
        for g, e in factors:
            acc = self.mult(acc, self.power(g, e))
        return acc

    def _cached(self, key, fn):
        if key not in self._memo:
            self._memo[key] = fn()
        return self._memo[key]

    def closure(self, gens) -> frozenset:
        def build():
            steps = [self._index[tuple(g)] for g in gens]
            steps += [self._inv(i) for i in steps]
            seen = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for i in frontier:
                    for j in steps:
                        k = self._mul(i, j)
                        if k not in seen:
                            seen.add(k)
                            nxt.append(k)
                frontier = nxt
            return frozenset(self.elements[i] for i in seen)
        return self._cached(("closure", tuple(map(tuple, gens))), build)

    def conjugacy_class(self, h) -> frozenset:
        def build():
            j = self._index[tuple(h)]
            return frozenset(
                self.elements[self._mul(self._mul(self._inv(i), j), i)]
                for i in range(len(self.elements)))
        return self._cached(("class", tuple(h)), build)

    def centralizer_size(self, g) -> int:
        return len(self.elements) // len(self.conjugacy_class(g))

    def conjugate(self, g, h) -> bool:
        return tuple(g) in self.conjugacy_class(h)

    def powers(self, g) -> dict:
        """Smallest k >= 0 with g^k = x, for every power x of g."""
        def build():
            i = self._index[tuple(g)]
            out = {}
            acc, k = 0, 0
            while self.elements[acc] not in out:
                out[self.elements[acc]] = k
                acc = self._mul(acc, i)
                k += 1
            return out
        return self._cached(("powers", tuple(g)), build)

    def order(self, g) -> int:
        return len(self.powers(g))


def product(M, pres, factors):
    """g_1^e_1 ... g_n^e_n for (g_i, e_i) in factors, by the library."""
    acc = M.identity(pres)
    for g, e in factors:
        acc = M.mult(acc, M.power(g, e))
    return acc


def check_consistency(answers) -> str | None:
    return None if answers[0] is True else "consistency_check did not answer True"


def check_member(oracle, gens, h, answers) -> str | None:
    rows, gamma, word = answers[0]
    member = tuple(h) in oracle.closure(gens)
    if gamma is None:
        return "member reported as non-member" if member else None
    if not member:
        return "non-member given a witness"
    if oracle.product(zip(rows, gamma)) != tuple(h):
        return "gamma does not evaluate to the element"
    if oracle.product((gens[k - 1], x) for k, x in word) != tuple(h):
        return "tracked word does not evaluate to the element"
    return None


def check_centralizer(oracle, g, answers) -> str | None:
    zs = answers[0]
    for z in zs:
        if oracle.mult(z, g) != oracle.mult(g, z):
            return "centralizer generator does not commute"
    if len(oracle.closure(zs)) != oracle.centralizer_size(g):
        return "centralizer generators span the wrong subgroup"
    return None


def check_conjugacy(oracle, g, h, answers) -> str | None:
    u = answers[0]
    if u is None:
        return "conjugate pair reported as not conjugate" \
            if oracle.conjugate(g, h) else None
    if oracle.mult(oracle.mult(oracle.inverse(u), h), u) != tuple(g):
        return "wrong conjugator"
    return None


def check_power(oracle, g, h, answers) -> str | None:
    k = answers[0]
    powers = oracle.powers(g)
    if k is None:
        return "power reported as no power" if tuple(h) in powers else None
    if oracle.power(g, k) != tuple(h):
        return "g^k differs from h"
    if k != powers.get(tuple(h)):
        return "k is not the smallest non-negative exponent"
    return None


def check_order(oracle, g, answers) -> str | None:
    return None if answers[0] == oracle.order(g) else "wrong element order"


def abelian_order(torsion, coords) -> int:
    """Order of an element of Z/e1 x ... x Z/en (a class-1 quotient)."""
    out = 1
    for col, x in enumerate(coords, start=1):
        e = torsion[col]
        out = math.lcm(out, e // math.gcd(x, e))
    return out


def check_abelian_order(pres, g, answers) -> str | None:
    return None if answers[0] == abelian_order(pres.torsion, g.coords) \
        else "wrong element order"


def check_abelian_power(M, pres, g, h, k_true, answers) -> str | None:
    k = answers[0]
    if k is None or M.power(g, k) != h:
        return "power not found or wrong"
    if k != k_true % abelian_order(pres.torsion, g.coords):
        return "k is not the smallest non-negative exponent"
    return None


def finite_plan(seed: int, rounds: int) -> Plan:
    """`rounds` rounds of finite_decisions: 26 queries each."""
    import malcev as M
    presentations = finite_setup(seed)
    rng = random.Random(seed ^ 0x5EED)
    plan = Plan(presentations, [])
    for i, pres in enumerate(presentations):
        if pres.basis.c > 1:
            plan.oracles[i] = FiniteOracle(pres)
        else:
            abelian_index, abelian = i, pres
    finite = list(plan.oracles.items())
    cosets = {}
    for i, oracle in finite:
        r = presentations[i].basis.r
        cosets[i] = {}
        for g in oracle.elements:
            cosets[i].setdefault(g[:r], []).append(g)

    def add(kind, i, *elements, expect=None):
        plan.steps.append(Step(kind, i, [list(g) for g in elements],
                               expect=expect))

    for n in range(rounds):
        for i, oracle in finite:
            pool, r = oracle.elements, presentations[i].basis.r
            gens = rng.sample(pool, 2)
            add("consistency", i)
            if n % 2:
                h = rng.choice(pool)
            else:
                h = oracle.product(((gens[0], rng.randint(-2, 2)),
                                    (gens[1], rng.randint(-2, 2))))
            add("member", i, *gens, h)
            add("centralizer", i, rng.choice(pool))
            # A pair from two cosets of the derived subgroup is answered at
            # once; so that the cost of a run does not depend on how many
            # such pairs a seed draws, the pair that is not conjugate by
            # construction comes from the coset of g.
            g, x = rng.choice(pool), rng.choice(pool)
            h = oracle.mult(oracle.mult(x, g), oracle.inverse(x)) \
                if n % 2 == 0 else rng.choice(cosets[i][g[:r]])
            add("conjugacy", i, g, h)
            g = rng.choice(pool)
            h = oracle.power(g, rng.randint(0, 30)) if n % 2 == 0 \
                else rng.choice(pool)
            add("power_problem", i, g, h)
            add("element_order", i, rng.choice(pool))

        g = M.element(abelian, [rng.randrange(1, e) for e in
                                (abelian.torsion[1], abelian.torsion[2])])
        add("element_order", abelian_index, g.coords)
        k = rng.randrange(10 ** 12)
        add("power_problem", abelian_index, g.coords, M.power(g, k).coords,
            expect=k)
    return plan


def finite_probes():
    """The known factoring hang: (label, query, checker) triples expected to
    run past the deadline."""
    import malcev as M
    basis = M.build_hall_basis(1, 2)
    pres = M.from_finite_presentation(
        basis, [((1, HANG_PRIMES[0]),), ((2, HANG_PRIMES[1]),)])
    g = M.element(pres, (1, 1))
    h = M.power(g, 12345)
    return [
        ("probe_order_hang", lambda: M.element_order(g),
         lambda a: check_abelian_order(pres, g, [a])),
        ("probe_power_hang", lambda: _power_or_none(M, pres, g, h),
         lambda a: check_abelian_power(M, pres, g, h, 12345, [a])),
    ]


# ---------------------------------------------------------------------------
# deep_arith: arithmetic in free nilpotent groups with huge exponents and no
# input reuse.

DEEP_BASES = ((3, 3), (4, 2), (5, 2), (5, 3))
DEEP_KINDS = ("power", "assoc", "inverse", "normal_form", "word_problem")
ENTRY_BITS = 32
EXP_BITS = 64
WORD_LEN = 6


def deep_setup(seed: int):
    import malcev as M
    out = []
    for c, r in DEEP_BASES:
        pres = M.free_presentation(c, r)
        one = M.element(pres, (1,) * pres.m)
        M.mult(one, one)
        out.append(pres)
    return out


def _rand_coords(rng, pres):
    bound = 1 << ENTRY_BITS
    return [rng.randint(-bound, bound) for _ in range(pres.m)]


def _rand_exp(rng) -> int:
    e = rng.randint(1, 1 << EXP_BITS)
    return e if rng.random() < 0.5 else -e


def _rand_word(rng, pres):
    return [(rng.randint(1, pres.m), _rand_exp(rng)) for _ in range(WORD_LEN)]


def inverse_word(word):
    return tuple((g, -x) for g, x in reversed(word))


def generator_sums(pres, word) -> list[int]:
    """Exponent sum of each group generator (the image in the
    abelianization); a word with a nonzero sum is not the identity."""
    sums = [0] * pres.basis.r
    for g, x in word:
        if g <= pres.basis.r:
            sums[g - 1] += x
    return sums


def check_equal(a, b, what):
    return None if a == b else what


def deep_step(rng, i: int, pres, kind: str) -> Step:
    if kind == "power":
        return Step(kind, i, [_rand_coords(rng, pres)],
                    [_rand_exp(rng), _rand_exp(rng)])
    if kind == "assoc":
        return Step(kind, i, [_rand_coords(rng, pres) for _ in range(3)])
    if kind == "inverse":
        return Step(kind, i, [_rand_coords(rng, pres)])
    if kind == "normal_form":
        return Step(kind, i, words=[_rand_word(rng, pres), _rand_word(rng, pres)])
    if kind == "word_problem":
        w = _rand_word(rng, pres)
        while not any(generator_sums(pres, w)):
            w = _rand_word(rng, pres)
        return Step(kind, i, words=[w])
    raise ValueError(kind)


def deep_plan(seed: int, rounds: int) -> Plan:
    """Each round runs every kind on the three smaller bases and one kind,
    in turn, on (5,3), where one multiply costs about 50 times more."""
    presentations = deep_setup(seed)
    rng = random.Random(seed ^ 0xDEE9)
    plan = Plan(presentations, [])
    big = len(presentations) - 1
    for n in range(rounds):
        for i in range(big):
            for kind in DEEP_KINDS:
                plan.steps.append(deep_step(rng, i, presentations[i], kind))
        plan.steps.append(deep_step(rng, big, presentations[big],
                                    DEEP_KINDS[n % len(DEEP_KINDS)]))
    return plan


SETUPS = {"finite_decisions": finite_setup, "deep_arith": deep_setup}
PLANS = {"finite_decisions": finite_plan, "deep_arith": deep_plan}
