"""Shared test helpers: independent oracles and random-instance builders."""

from __future__ import annotations

import collections
import itertools
import pathlib
import sys
from dataclasses import dataclass
from functools import lru_cache

import pytest

import malcev as M
from malcev import decisions, subgroups
from malcev.extgcd import InternalConsistencyError, RejectedInput, _reduction
from malcev.freegroup import (SHIPPED_RANKS, ExpWord, HallBasis,
                              SizeCapExceeded, commute_by_weight,
                              coords_to_word, eval_free)
from malcev.presentations import (FullFormViolation, check_echelon_conditions,
                                  first_nonzero)
from malcev.subgroups import (_EXPR_ONE, ProductContext, _membership_scan,
                              _power, _power_product, _times, full_form_rows)

# The derivation of the tables is a tool, not part of the library.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
from deepthought import Poly  # noqa: E402
from series import SeriesBasis, series_mult, series_power  # noqa: E402

# Every basis of `SHIPPED_RANKS`, and those with shipped tables: the ones of
# top weight >= 2.  A basis of top weight 1 (class 1, or rank 1 at any
# class) adds and scales with no table.
ACCEPTED = [(c, r) for c, top in SHIPPED_RANKS.items()
            for r in range(1, top + 1) if r > 1 or c == 1]
SHIPPED = [(c, r) for c, r in ACCEPTED if c > 1]


@pytest.fixture(autouse=True)
def empty_tower_cache():
    """Each test starts with the descent's two caches empty, its towers
    (`decisions._tower`) and its layers (`decisions._layer`), so no test
    reads what another test left there."""
    decisions._tower.cache_clear()
    decisions._layer.cache_clear()


@pytest.fixture
def table_calls(monkeypatch):
    """The meter of compiled calls: `table_calls(*bases)` wraps each basis's
    `mult` and `pow_polynomials` tables for the test, once per basis, and
    returns the test's one Counter of calls by kind, which the test may
    clear.  Wrapping loads both tables."""
    calls, metered = collections.Counter(), {}  # id -> basis, kept alive

    def meter(*bases):
        for basis in bases:
            if id(basis) not in metered:
                metered[id(basis)] = basis
                for kind in ("mult", "pow_polynomials"):
                    monkeypatch.setitem(
                        basis.__dict__, kind,
                        lambda *a, kind=kind, table=getattr(basis, kind):
                        calls.update((kind,)) or table(*a))
        return calls
    return meter

# ---------------------------------------------------------------------------
# 3x3 unitriangular integer-matrix model of the free class-2 rank-2 group.
# Generators map to I + E12 and I + E23; this is a faithful model, so it is
# an oracle for the coordinate arithmetic that shares no code with it.


def mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3))
                       for j in range(3)) for i in range(3))


MAT_ID = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def mat_inv(a):
    # unitriangular 3x3 inverse
    x, z, y = a[0][1], a[0][2], a[1][2]
    return ((1, -x, x * y - z), (0, 1, -y), (0, 0, 1))


def mat_pow(a, e):
    """a**e for a unitriangular a, any integer e, in closed form:
    ((1, x, z), (0, 1, y), (0, 0, 1))**e
        = ((1, e x, e z + binomial(e, 2) x y), (0, 1, e y), (0, 0, 1)).
    `test_mat_pow_closed_form` checks it against repeated `mat_mul`."""
    assert a[1][0] == a[2][0] == a[2][1] == 0
    assert a[0][0] == a[1][1] == a[2][2] == 1
    x, z, y = a[0][1], a[0][2], a[1][2]
    return ((1, e * x, e * z + e * (e - 1) // 2 * x * y),
            (0, 1, e * y), (0, 0, 1))


MAT_A1 = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
MAT_A2 = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
# third basis letter is the commutator [a2, a1] = a2^-1 a1^-1 a2 a1
MAT_A3 = mat_mul(mat_mul(mat_inv(MAT_A2), mat_inv(MAT_A1)),
                 mat_mul(MAT_A2, MAT_A1))
MAT_LETTERS = (MAT_A1, MAT_A2, MAT_A3)


def mat_of_word(word):
    out = MAT_ID
    for g, e in word:
        out = mat_mul(out, mat_pow(MAT_LETTERS[g - 1], e))
    return out


def mat_of_coords(coords):
    out = MAT_ID
    for g, e in enumerate(coords, start=1):
        if e:
            out = mat_mul(out, mat_pow(MAT_LETTERS[g - 1], e))
    return out


# ---------------------------------------------------------------------------
# The Magnus-series engine over integers, from which `tools/gen_tables.py`
# derives the shipped polynomials: an oracle for products, powers and words
# in a free group.


@lru_cache(maxsize=None)
def _series(basis):
    return SeriesBasis(basis)


def series_eval(basis, word):
    data = _series(basis)
    return data.series_to_coords(data.word_series(word))


def series_coords_mult(basis, u, v):
    data = _series(basis)
    return data.series_to_coords(series_mult(
        basis.c, data.word_series(coords_to_word(u)),
        data.word_series(coords_to_word(v))))


def series_coords_pow(basis, u, e):
    data = _series(basis)
    return data.series_to_coords(series_power(
        basis.c, data.word_series(coords_to_word(u)), e))


def series_derive(basis, kind):
    """The inverse ("inverse") or power ("pow") polynomials by the series
    engine: the series of u with the coordinates as indeterminates, to the
    -1 or to e = x_m, read back as coordinates."""
    width = basis.c.bit_length()
    data = _series(basis)
    u = data.word_series(tuple((i + 1, Poly.var(i, width))
                               for i in range(basis.m)))
    e = -1 if kind == "inverse" else Poly.var(basis.m, width)
    return data.series_to_coords(series_power(basis.c, u, e)), width


# ---------------------------------------------------------------------------
# Finite quotients: exhaustive oracles.


class FiniteGroup:
    """Brute-force view of a finite quotient presentation."""

    def __init__(self, pres: M.QuotientPresentation):
        self.pres = pres
        ranges = []
        for col in range(1, pres.m + 1):
            e = pres.torsion.get(col)
            assert e is not None, "presentation is not finite"
            ranges.append(range(e))
        self.elements = [tuple(t) for t in itertools.product(*ranges)]
        self.order = len(self.elements)

    def mult(self, u, v):
        return M.reduce_coords(self.pres, self.pres.basis.mult(u, v))

    def inv(self, u):
        return M.reduce_coords(self.pres, self.pres.basis.pow(u, -1))

    def subgroup_closure(self, gens):
        gens = [M.reduce_coords(self.pres, g) for g in gens]
        closure = {(0,) * self.pres.m}
        frontier = list(closure)
        step = gens + [self.inv(g) for g in gens]
        while frontier:
            nxt = []
            for u in frontier:
                for g in step:
                    w = self.mult(u, g)
                    if w not in closure:
                        closure.add(w)
                        nxt.append(w)
            frontier = nxt
        return closure

    def centralizer_brute(self, g):
        return {u for u in self.elements
                if self.mult(u, g) == self.mult(g, u)}

    def conjugator_brute(self, g, h):
        """Some u with g = u^-1 h u, else None."""
        for u in self.elements:
            if self.mult(self.mult(self.inv(u), h), u) == g:
                return u
        return None

    def element_order_brute(self, g):
        acc = g
        n = 1
        ident = (0,) * self.pres.m
        while acc != ident:
            acc = self.mult(acc, g)
            n += 1
        return n


def normal_closure_rows(basis, rows):
    """Full form of the normal closure of the given elements in the free
    nilpotent group."""
    free = M.free_presentation(basis.c, basis.r)
    rows = full_form_rows(free, rows)[0]
    letters = [eval_free(basis, ((j, s),))
               for j in range(1, basis.r + 1) for s in (1, -1)]
    while True:
        ext = list(rows)
        for row in rows:
            for a in letters:
                ext.append(basis.mult(basis.mult(basis.pow(a, -1), row), a))
        new = full_form_rows(free, ext)[0]
        if new == rows:
            return new
        rows = new


def conjugates_scan(basis, rows):
    """The relator check by conjugates, an oracle for the library's check by
    commutators (`presentations._check_normal_full_form`): True iff the rows
    satisfy conditions (i)-(iv) and each element the normal-closure sift
    closes over, h_i^-1 h_j h_i for rows i < j and x^-1 h x for each row h
    and generator x, less what commutes by weight, scans into all the
    rows."""
    try:
        pivots = check_echelon_conditions(rows)
    except FullFormViolation:
        return False
    hs = list(zip(pivots, rows))
    gens = [(k + 1, tuple(int(j == k) for j in range(basis.m)))
            for k in range(basis.r)]
    for i, (p, x) in enumerate(gens + hs):
        x_inv = basis.pow(x, -1)
        for q, h in hs[max(0, i - len(gens) + 1):]:
            if not commute_by_weight(basis, p, q) and _membership_scan(
                    basis, rows, basis.mult(basis.mult(x_inv, h), x),
                    pivots) is None:
                return False
    return True


@dataclass(frozen=True)
class StructureRelations:
    """Normal-form tails of the two letter-exchange relations.

    For j > i (1-based): swapping a_j past a_i gives
        a_j a_i      = a_i a_j      * tail(alpha[(i, j)])
        a_j^-1 a_i   = a_i a_j^-1   * tail(beta[(i, j)])
    with each tail an exponent vector supported on letters > j.
    """
    alpha: dict[tuple[int, int], tuple[int, ...]]
    beta: dict[tuple[int, int], tuple[int, ...]]


@lru_cache(maxsize=None)
def structure_relations(basis: HallBasis) -> StructureRelations:
    alpha: dict[tuple[int, int], tuple[int, ...]] = {}
    beta: dict[tuple[int, int], tuple[int, ...]] = {}
    for j in range(2, basis.m + 1):
        for i in range(1, j):
            for sign, store in ((1, alpha), (-1, beta)):
                lhs = eval_free(basis, ((j, sign), (i, 1)))
                head = eval_free(basis, ((i, 1), (j, sign)))
                tail = basis.mult(basis.pow(head, -1), lhs)
                if any(tail[:j]):
                    raise InternalConsistencyError(
                        "exchange tail not supported on higher letters")
                store[(i, j)] = tail
    return StructureRelations(alpha=alpha, beta=beta)


# ---------------------------------------------------------------------------
# A second descent, through the quotients G/Γ_k, with one graph in G x G
# per class and no layer of its own: an oracle for centralizers, whose full
# form is unique, and for the verdicts of conjugacy.


@lru_cache
def quotient_mod_last(pres):
    """G / Γ_c: drop the weight-c letters and truncate the relators."""
    small = M.build_hall_basis(pres.c - 1, pres.basis.r)
    if pres.basis.letters[:small.m] != small.letters:
        raise InternalConsistencyError("class c-1 basis is not a prefix")
    rows = [row[:small.m] for row in pres.relators.rows
            if first_nonzero(row) <= small.m]
    return M.make_quotient_presentation(small, rows)


def _oracle_graph(target, source, gens, images):
    """The kernel, image halves and source halves of the full form of the
    graph <(phi(x), x)> in target x source."""
    form = full_form_rows(ProductContext(target, source),
                          [y + x for x, y in zip(gens, images)])[0]
    split = target.m
    r = sum(1 for row in form if any(row[:split]))
    return ([row[split:] for row in form[r:]],
            [row[:split] for row in form[:r]],
            [row[split:] for row in form[:r]])


@lru_cache
def _oracle_tower(pres, head):
    """The graph of u -> [g, u] on the preimage of C_{G/Γ_c}(g), for g's
    image `head` in G/Γ_c."""
    top = [M.reduce_coords(pres, tuple(int(j == i) for j in range(pres.m)))
           for i in range(pres.m) if pres.weights[i + 1] == pres.c]
    if pres.c == 1:
        return top, [], []
    small = quotient_mod_last(pres)
    pad = (0,) * (pres.m - small.m)
    cover = [z + pad for z in
             _oracle_tower(small, head[:quotient_mod_last(small).m]
                           if small.c > 1 else ())[0]] + top
    g = head + pad
    g_inv = pres.pow(g, -1)
    return _oracle_graph(pres, pres, cover,
                         [pres.mult(pres.mult(g_inv, pres.pow(u, -1)),
                                    pres.mult(g, u)) for u in cover])


def oracle_centralizer(pres, g):
    """The generators of C_G(g), as coordinate tuples, that the descent
    through G/Γ_c gives: its full form, or at class 1 every reduced
    letter."""
    head = g[:quotient_mod_last(pres).m] if pres.c > 1 else ()
    return list(_oracle_tower(pres, head)[0])


def oracle_conjugator(pres, g, h):
    """Some u with g = u^-1 h u, or None, by the descent through G/Γ_c."""
    if pres.c == 1:
        return pres.identity if g == h else None
    small = quotient_mod_last(pres)
    v = oracle_conjugator(small, g[:small.m], h[:small.m])
    if v is None:
        return None
    v += (0,) * (pres.m - small.m)
    mult, pow_ = pres.mult, pres.pow
    target = mult(pow_(g, -1), mult(pow_(v, -1), mult(h, v)))
    _, images, sources = _oracle_tower(pres, g[:small.m])
    beta = _membership_scan(pres, images, target)
    if beta is None:
        return None
    u = mult(v, pow_(_power_product(pres, sources, beta), -1))
    if mult(mult(pow_(u, -1), h), u) != g:
        raise InternalConsistencyError("oracle conjugator fails to conjugate")
    return u


# ---------------------------------------------------------------------------
# The paper's row operations and its reduction of Bezout coefficients.  The
# library builds subgroups only by the sift (`full_form_rows`); the full
# form must not change under the row operations, and `reduce_coefficients`
# checks the contract of the reduction inside `extgcd_bounded`.


def apply_row_operation(matrix: M.CoordinateMatrix, op) -> M.CoordinateMatrix:
    """One of the five subgroup-preserving row operations.

    op is a tuple: ("swap", i, j); ("combine", i, j, l) replacing row i by
    h_i h_j^l; ("add_trivial",); ("add_relator", col); ("remove", i) for a
    trivial row; ("invert", i); ("append_product", ((i1, l1), ...)).
    Row indices are 1-based.
    """
    pres = matrix.presentation
    exprs = matrix.expressions  # None for an untracked matrix
    rows = list(zip(matrix.rows, exprs or itertools.repeat(_EXPR_ONE)))

    def check(i):
        if not 1 <= i <= len(rows):
            raise RejectedInput(f"row index {i} out of range")

    kind = op[0]
    if kind == "swap":
        _, i, j = op
        check(i), check(j)
        rows[i - 1], rows[j - 1] = rows[j - 1], rows[i - 1]
    elif kind == "combine":
        _, i, j, l = op
        check(i), check(j)
        if i == j:
            raise RejectedInput("combine requires distinct rows")
        rows[i - 1] = _times(pres, rows[i - 1], rows[j - 1], l)
    elif kind == "add_trivial":
        rows.append((pres.identity, _EXPR_ONE))
    elif kind == "add_relator":
        _, col = op
        if col not in pres.torsion:
            raise RejectedInput(f"column {col} is not a torsion column")
        relators = dict(zip(pres.relators.pivots, pres.relators.rows))
        rows.append((relators[col], _EXPR_ONE))
    elif kind == "remove":
        _, i = op
        check(i)
        if any(M.reduce_coords(pres, rows[i - 1][0])):
            raise RejectedInput("only trivial rows can be removed")
        del rows[i - 1]
    elif kind == "invert":
        _, i = op
        check(i)
        rows[i - 1] = _power(pres, rows[i - 1], -1)
    elif kind == "append_product":
        _, factors = op
        acc = (pres.identity, _EXPR_ONE)
        for i, l in factors:
            check(i)
            acc = _times(pres, acc, rows[i - 1], l)
        rows.append(acc)
    else:
        raise RejectedInput(f"unknown row operation {kind!r}")
    return M.CoordinateMatrix(pres, tuple(r for r, _ in rows),
                              None if exprs is None else
                              tuple(e for _, e in rows))


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


def expand_by_streaming(expr) -> ExpWord:
    """The word of an expression tree, letter by letter: each power's base
    is streamed onto the word |x| times and free reduction merges the
    result away, so the work grows with every exponent.  Raises
    SizeCapExceeded past `subgroups.DEFAULT_WORD_CAP` letters, read at call
    time.  The library expands each composite base once instead
    (`subgroups.expand_expression`)."""
    cap = subgroups.DEFAULT_WORD_CAP
    word: list = []
    emitted = 0
    # Entries are (subtree, inverted, repetitions).
    stack = [(expr, False, 1)]
    while stack:
        e, flip, times = stack.pop()
        if times > 1:
            stack.append((e, flip, times - 1))
        if e[0] == "m":
            stack.extend([(p, flip, 1)
                          for p in (e[1] if flip else reversed(e[1]))])
            continue
        if e[0] == "g":
            sym, x = e[1] + 1, -1 if flip else 1
        else:
            _, base, x = e
            if flip:
                x = -x
            if base[0] != "g":
                stack.append((base, x < 0, abs(x)))
                continue
            sym = base[1] + 1
        if emitted == cap:
            raise SizeCapExceeded(f"expression longer than cap {cap}")
        emitted += 1
        if word and word[-1][0] == sym:
            x += word[-1][1]
            if x:
                word[-1] = (sym, x)
            else:
                word.pop()
        else:
            word.append((sym, x))
    return tuple(word)


# ---------------------------------------------------------------------------
# Collection from the left for polycyclic-style nilpotent presentations.
#
# The collector knows nothing of the library's arithmetic: it normalizes words
# purely by rewriting with the exchange relations
# (g_j^{±1} g_i -> g_i g_j^{±1} tail) and the power relations
# (g_i^{e_i} -> tail), so it is an independent oracle.  The tests judge
# subgroup presentations (`nilpotent_presentation_consistent`) and quotient
# presentations (`collector_consistent`) with it.  Collection takes steps
# linear in the exponents; every rewriting step is counted, and exceeding
# DEFAULT_STEP_CAP, read at each step, raises CollectionLimit.


class CollectionLimit(RuntimeError):
    """The step budget was exhausted before the word was collected."""


DEFAULT_STEP_CAP = 500_000


def invert_word(word: ExpWord) -> ExpWord:
    return tuple((g, -x) for g, x in reversed(word))


class Collector:
    def __init__(self, s: int,
                 orders: dict[int, int],
                 power_tails: dict[int, ExpWord],
                 alpha: dict[tuple[int, int], ExpWord],
                 beta: dict[tuple[int, int], ExpWord]):
        self.s = s
        self.orders = orders          # generator index -> relative order
        self.power_tails = power_tails
        self.alpha = alpha            # (i, j), i < j: conj tail of g_j by g_i
        self.beta = beta              # same for g_j^{-1}
        self._steps = 0
        self._letter_memo: dict[tuple[int, int, int], tuple[ExpWord, ExpWord]] = {}

    # -- bookkeeping --------------------------------------------------------

    def _tick(self, n: int = 1) -> None:
        self._steps += n
        if self._steps > DEFAULT_STEP_CAP:
            raise CollectionLimit(f"step budget {DEFAULT_STEP_CAP} exhausted")

    # -- conjugation maps ---------------------------------------------------

    def _conj_letter(self, i: int, g: int, sign: int) -> tuple[ExpWord, ExpWord]:
        """Images of g^{+1} and g^{-1} under conjugation by g_i^{sign}."""
        key = (i, g, sign)
        memo = self._letter_memo.get(key)
        if memo is not None:
            return memo
        t_a = self.alpha.get((i, g), ())
        t_b = self.beta.get((i, g), ())
        if sign == 1:
            res = (((g, 1),) + t_a, ((g, -1),) + t_b)
        else:
            # The inverse map: g_i g g_i^{-1} = g * S with the defining map
            # sending g * S back to g, so S is the inverse image of the
            # inverted tail (a word over strictly larger generators).
            res = (((g, 1),) + self._conj_word(invert_word(t_a), i, -1),
                   ((g, -1),) + self._conj_word(invert_word(t_b), i, -1))
        self._letter_memo[key] = res
        return res

    def _conj_once(self, word: list[tuple[int, int]], i: int,
                   sign: int) -> list[tuple[int, int]]:
        out: list[tuple[int, int]] = []
        for g, x in word:
            if x == 0:
                continue
            pos, neg = self._conj_letter(i, g, sign)
            if len(pos) == 1 and len(neg) == 1:
                out.append((g, x))  # commutes with g_i
                continue
            img = pos if x > 0 else neg
            for _ in range(abs(x)):
                self._tick(len(img))
                out.extend(img)
        return out

    def _conj_word(self, word, i: int, power: int) -> tuple[tuple[int, int], ...]:
        """Conjugate a word over generators > i by g_i^{power}."""
        w = [f for f in word if f[1]]
        if power == 0 or not w:
            return tuple(w)
        if all(len(self._conj_letter(i, g, 1)[0]) == 1
               and len(self._conj_letter(i, g, 1)[1]) == 1 for g, _ in w):
            return tuple(w)  # everything commutes with g_i
        sign = 1 if power > 0 else -1
        for _ in range(abs(power)):
            self._tick()
            w = self._conj_once(w, i, sign)
        return tuple(w)

    # -- collection ---------------------------------------------------------

    def collect(self, word: ExpWord) -> tuple[int, ...]:
        self._steps = 0
        return tuple(self._collect(tuple(word), 1))

    def _collect(self, word, i: int) -> list[int]:
        if i > self.s:
            if word:
                raise InternalConsistencyError(
                    "letters left over after the last generator")
            return []
        y = 0
        rest: list[tuple[int, int]] = []
        for g, x in word:
            if x == 0:
                continue
            if not i <= g <= self.s:
                raise InternalConsistencyError(
                    f"letter {g} outside generators {i}..{self.s}")
            if g == i:
                rest = list(self._conj_word(rest, i, x))
                y += x
            else:
                rest.append((g, x))
        e = self.orders.get(i)
        if e:
            q, y = divmod(y, e)
            if q:
                tail = self.power_tails.get(i, ())
                rep = tail if q > 0 else invert_word(tail)
                self._tick(abs(q) * max(len(rep), 1))
                rest = list(rep) * abs(q) + rest
        return [y] + self._collect(rest, i + 1)


def _associative(col, s: int) -> bool:
    """(g_i g_j) g_k == g_i (g_j g_k) under the collector for every triple.

    Each pair product g_i g_j is collected once and reused, as a word, on
    both sides: s**2 pair collections instead of s**3.
    """
    gens = range(1, s + 1)
    pairs = {(i, j): coords_to_word(col.collect(((i, 1), (j, 1))))
             for i in gens for j in gens}
    return all(col.collect(pairs[i, j] + ((k, 1),))
               == col.collect(((i, 1),) + pairs[j, k])
               for i in gens for j in gens for k in gens)


def collector_for_nilpotent(npres) -> Collector:
    """The collector of a subgroup presentation, from its relation tails."""
    orders = {i: e for i, e in enumerate(npres.orders, start=1) if e is not None}
    tails = {i: coords_to_word(v) for i, v in npres.power_tails.items()}
    alpha = {k: coords_to_word(v) for k, v in npres.alpha.items()}
    beta = {k: coords_to_word(v) for k, v in npres.beta.items()}
    return Collector(npres.s, orders, tails, alpha, beta)


def nilpotent_presentation_consistent(npres) -> bool:
    """Consistency of a subgroup presentation, decided by collection: every
    power relation holds and collection is associative on the generators.

    The answer is True or False only when collection decided it: a
    collection that exceeds DEFAULT_STEP_CAP raises CollectionLimit, which
    propagates rather than reading as False."""
    col = collector_for_nilpotent(npres)
    zero = (0,) * npres.s
    for i, e in enumerate(npres.orders, start=1):
        if e is None:
            continue
        tail = npres.power_tails.get(i, zero)
        if col.collect(((i, e),)) != col.collect(coords_to_word(tail)):
            return False
    return _associative(col, npres.s)


def collector_for_quotient(pres):
    """The collector of a quotient presentation: the exchange relations of
    its basis, and for each torsion column its relator row as the power
    relation."""
    basis = pres.basis
    sr = structure_relations(basis)
    alpha = {k: coords_to_word(v) for k, v in sr.alpha.items()}
    beta = {k: coords_to_word(v) for k, v in sr.beta.items()}
    orders: dict[int, int] = {}
    tails: dict[int, tuple] = {}
    for col, row in zip(pres.relators.pivots, pres.relators.rows):
        orders[col] = row[col - 1]
        suffix = tuple((j + 1, v) for j, v in enumerate(row) if v and j + 1 > col)
        tails[col] = invert_word(suffix)
    return Collector(basis.m, orders, tails, alpha, beta)


def collector_consistent(pres):
    """The collector's verdict on a quotient presentation: every relator row,
    and its conjugate by each letter in both directions, collects to the
    identity, and collection is associative on the letters.  The collector
    derives its arithmetic from the exchange and power relations alone, so it
    shares no code with the full-form sift.  A `CollectionLimit` propagates:
    running out of steps is no verdict."""
    col = collector_for_quotient(pres)
    zero = pres.identity
    words = [coords_to_word(row) for row in pres.relators.rows]
    for w in words:
        if col.collect(w) != zero:
            return False
    for j in range(1, pres.m + 1):
        for w in words:
            if (col.collect(((j, -1),) + w + ((j, 1),)) != zero
                    or col.collect(((j, 1),) + w + ((j, -1),)) != zero):
                return False
    return _associative(col, pres.m)


def random_finite_presentation(rng, c, r, max_pivot=4):
    """A consistent finite quotient presentation with small relative orders."""
    basis = M.build_hall_basis(c, r)
    gens = []
    for i in range(r):
        unit = [0] * basis.m
        unit[i] = rng.choice(range(2, max_pivot + 1))
        gens.append(tuple(unit))
    if rng.random() < 0.5:
        gens.append(tuple(rng.randint(-3, 3) for _ in range(basis.m)))
    rows = normal_closure_rows(basis, gens)
    if len(rows) < basis.m:
        # ensure every column is a pivot so that the quotient is finite
        extra = []
        for col in range(1, basis.m + 1):
            unit = [0] * basis.m
            unit[col - 1] = rng.choice([2, 3, 4])
            extra.append(tuple(unit))
        rows = normal_closure_rows(basis, list(rows) + extra)
    return M.make_quotient_presentation(basis, rows)


def hom_image_of_letters(source_basis, weight1_images):
    """Images of every basis letter under the homomorphism from the free
    nilpotent group sending generator i to weight1_images[i-1]."""
    basis = source_basis
    out = []
    for bc in basis.letters:
        if bc.weight == 1:
            out.append(weight1_images[len(out)])
        else:
            a, b = out[bc.left - 1], out[bc.right - 1]
            out.append(M.mult(M.mult(M.inverse(a), M.inverse(b)),
                              M.mult(a, b)))
    return out


def hom_apply(letter_images, coords):
    """phi(a_1^{x_1} ... a_m^{x_m}) for a homomorphism phi given on letters."""
    out = M.identity(letter_images[0].presentation)
    for img, e in zip(letter_images, coords):
        if e:
            out = M.mult(out, M.power(img, e))
    return out
