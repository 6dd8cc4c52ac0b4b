"""The shipped multiplication and power polynomials, whose value at e = -1
is the inverse, against their derivation by `tools/deepthought.py` and the
Magnus-series engine of `tools/series.py`, which derives the product and
stays as the oracle for the power.  The library derives nothing itself."""

import ast
import collections
import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from conftest import (ACCEPTED, SHIPPED, series_coords_mult, series_coords_pow,
                      series_derive, series_eval)
import deepthought
from deepthought import Poly, binomial_terms, derive, table_source
from malcev import freegroup
from malcev.freegroup import (build_hall_basis, coords_to_word, eval_free,
                              table_module)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
TABLES = SRC / "malcev" / "tables"


def run_python(code):
    """Stdout words of `code` run in a fresh interpreter on this source."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    return out.stdout.split()


# The bases whose polynomials, a table or the built-in sum and multiple at
# class 1, are checked term by term against their derivation, and whose
# power is checked against the series engine: those of class <= 5 and rank
# <= 3, with (3,4) and (6,2).  The larger ones take
# seconds each; their text equals a fresh derivation, and their lower
# classes are their truncations (`test_lower_class_tables_are_truncations`).
SAMPLED = [(c, r) for c, r in ACCEPTED if c <= 5 and r <= 3] + [(3, 4), (6, 2)]

KINDS = ("mult", "pow")


def test_shipped_tables_match_a_fresh_derivation():
    # One module per kind for each basis of the grid of top weight >= 2,
    # and no other: a left-over class-1 module fails here.  (8,2)
    # takes most of the derivation time of the whole grid, about 7 s, so
    # only CI's regeneration step, which rewrites every table and fails on
    # a difference, compares its text.
    shipped = sorted(p.name for p in TABLES.glob("c*r*.py"))
    expected = []
    for c, r in SHIPPED:
        basis = build_hall_basis(c, r)
        for kind in KINDS:
            name = f"{table_module(kind, c, r)}.py"
            expected.append(name)
            if (c, r) != (8, 2):
                text = (TABLES / name).read_text()
                assert text == table_source(basis, kind), name
    assert shipped == sorted(expected)
    assert len(shipped) == 42
    with pytest.raises(ValueError):
        derive(build_hall_basis(2, 2), "inverse")


def poly_value(p, xs, width):
    """Value of a derived `Poly` at the integers xs, summed monomial by
    monomial; the sum must be a multiple of the denominator."""
    total = 0
    for key, coef in p.terms.items():
        term = coef
        while key:
            j = (key.bit_length() - 1) // width
            e = key >> (j * width)
            term *= xs[j] ** e
            key -= e << (j * width)
        total += term
    q, rem = divmod(total, p.den)
    assert rem == 0
    return q


def binomials(e, n):
    """C(e, 1) .. C(e, n), for an integer or a `Poly` e."""
    out, b = [], 1
    for j in range(n):
        b = b * (e - j) // (j + 1)
        out.append(b)
    return out


def newton_value(diffs, xs, width):
    """Value of a derived power coordinate, its differences Δ^1 .. Δ^w, at
    the coordinates and exponent xs: the sum of C(e, j)·Δ^j."""
    *u, e = xs
    return sum(b * poly_value(d, u, width)
               for b, d in zip(binomials(e, len(diffs)), diffs))


# (6,2) peels six weights off each series.
@pytest.mark.parametrize("c,r", SAMPLED)
def test_emitted_tables_match_the_derived_polynomials(c, r):
    basis = build_hall_basis(c, r)
    rng = random.Random(c * 10 + r)

    def coords():
        return tuple(rng.choice((-1, 1)) * rng.getrandbits(
            rng.choice((1, 8, 64, 200))) for _ in range(basis.m))

    vectors = [(0,) * basis.m] + [coords() for _ in range(5)]
    pairs = [(u, v) for u in vectors[:3] for v in vectors[:3]]
    pairs += zip(vectors[3:], vectors[2:])
    powers = [(u, (e,)) for u in vectors[:3] for e in (0, 1, -1, 2)]
    powers += [(u, (e,)) for u, e in zip(vectors[3:], (-(1 << 64) - 3, 7, 1 << 64))]
    for kind, fn, args in (("mult", basis.mult, pairs),
                           ("pow", lambda u, e: basis.pow_polynomials(u, *e),
                            powers)):
        polys, width = derive(basis, kind)
        value = newton_value if kind == "pow" else poly_value
        for xs in args:
            flat = [x for vec in xs for x in vec]
            assert fn(*xs) == tuple(value(p, flat, width)
                                    for p in polys), (kind, xs)


# A series power of these vectors costs 20-50 ms at (5,3) and (6,2), so
# there each exponent meets the series with one of the four vectors, not
# all.  At -1, 0 and 1 the polynomials, called without `HallBasis.pow`'s
# shortcuts, give the inverse, the identity and u: C(e, j) is (-1)^j, 0 and
# 0 for j >= 2; the inverse meets the series with every vector.
@pytest.mark.parametrize("c,r", SAMPLED)
def test_power_polynomials_match_the_newton_sum(c, r):
    basis = build_hall_basis(c, r)
    rng = random.Random(c * 10 + r + 1)
    exponents = (-(1 << 64) - 3, -7, -2, -1, 0, 1, 2, 3, 1 << 64)
    stride = 4 if (c, r) in ((5, 3), (6, 2)) else 1
    for k in range(4):
        u = tuple(rng.choice((-1, 1)) * rng.getrandbits(rng.choice((1, 32, 200)))
                  for _ in range(basis.m))
        for e in exponents:
            assert basis.pow_polynomials(u, e) == basis.pow(u, e), (u, e)
        assert basis.pow_polynomials(u, -1) == series_coords_pow(basis, u, -1)
        assert basis.pow_polynomials(u, 0) == (0,) * basis.m
        assert basis.pow_polynomials(u, 1) == u
        for e in exponents[k % stride::stride]:
            assert basis.pow(u, e) == series_coords_pow(basis, u, e), (u, e)


# Every shipped power table, those `SAMPLED` leaves out included, against
# Newton's formula over powers formed by the shipped product, with no
# derivation: coordinate q of u^e has degree <= weight(q) <= c in e, so
# u^e is the sum over j <= c of C(e, j)·Δ^j, the forward differences of
# u^0 .. u^c.
@pytest.mark.parametrize("c,r", SHIPPED)
def test_every_power_table_matches_the_newton_sum_of_the_product(c, r):
    basis = build_hall_basis(c, r)
    rng = random.Random(c * 10 + r + 2)
    for bits in (1, 32, 200) * 2:
        u = tuple(rng.choice((-1, 1)) * rng.getrandbits(bits)
                  for _ in range(basis.m))
        column = [(0,) * basis.m, u]
        for _ in range(c - 1):
            column.append(basis.mult(column[-1], u))
        diffs = []
        while len(column) > 1:
            column = [tuple(y - x for x, y in zip(p, q))
                      for p, q in zip(column, column[1:])]
            diffs.append(column[0])
        for e in (-(1 << 64) - 3, -2, -1, 2, 3, 1 << 64):
            newton = [0] * basis.m
            for b, d in zip(binomials(e, c), diffs):
                newton = [x + b * y for x, y in zip(newton, d)]
            assert basis.pow_polynomials(u, e) == tuple(newton), (bits, e)


def monomial_locals(tree):
    """Times each local `t<k>` is read, by name."""
    reads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id[0] == "t" \
                and node.id[1:].isdigit():
            count = isinstance(node.ctx, ast.Load)
            reads[node.id] = reads.get(node.id, 0) + count
    return reads


def operations(tree):
    """Arithmetic operations: every binary operator."""
    return sum(isinstance(node, ast.BinOp) for node in ast.walk(tree))


def test_emitted_tables_build_each_monomial_once():
    trees = {p.stem: ast.parse(p.read_text()) for p in TABLES.glob("c*r*.py")}
    for name, tree in trees.items():
        reads = monomial_locals(tree)
        # a monomial read once is written inline
        assert all(n >= 2 for n in reads.values()), name
        # no term or monomial shares a monomial in these tables
        if name.startswith(("c2r2", "c2r3")):
            assert not reads, name
    # The product tables are written in the binomial basis.  Over monomials
    # and a common denominator they took 2,497 and 9,419 operations.
    assert operations(trees["c5r3"]) <= 1384
    assert operations(trees["c8r2"]) <= 4499
    # The power tables write each monomial once per coordinate, times its
    # combination of binomials
    # (`test_power_tables_multiply_by_e_at_most_weight_times`).  With one
    # product by each binomial per difference they took 3,669 and 17,125.
    assert operations(trees["c5r3_pow"]) <= 2469
    assert operations(trees["c8r2_pow"]) <= 10883


def test_product_tables_divide_only_in_their_binomial_chains():
    # A product coordinate is an integer combination of products of
    # binomials, so it divides by nothing.  The only `//` are the chains
    # x_k = C(x, k) = x_(k-1)*(x - (k - 1))//k, k <= c, which follow the
    # unpacking of u and v, each link after the one it reads.
    for c, r in SHIPPED:
        name = table_module("mult", c, r)
        body = ast.parse((TABLES / f"{name}.py").read_text()).body[1].body
        chain = [ast.unparse(n) for n in itertools.takewhile(
            lambda n: "_" in n.targets[0].id, body[2:-1])]
        formed = set()
        for line in chain:
            x, k = line.split(" ")[0].split("_")
            k = int(k)
            prev = x if k == 2 else f"{x}_{k - 1}"
            assert line == f"{x}_{k} = {prev} * ({x} - {k - 1}) // {k}", name
            assert k <= c and (k == 2 or prev in formed), (name, line)
            formed.add(f"{x}_{k}")
        divisions = sum(isinstance(n, ast.BinOp)
                        and isinstance(n.op, ast.FloorDiv)
                        for stmt in body for n in ast.walk(stmt))
        assert divisions == len(chain), name
        # (2,r) has no binomial of degree 2; (3,2) reads C(u2, 2), C(v1, 2)
        assert bool(chain) == (c > 2), name


# Entries in [-3, 3] exercise the chains' floor divisions at negative and
# small coordinates, where C(x, k) is 0 or alternates in sign; entries of
# 64 bits exercise them far from 0.
@pytest.mark.parametrize("c,r", [(3, 2), (4, 2), (5, 2), (3, 3)])
def test_product_tables_match_the_series_at_small_and_wide_entries(c, r):
    basis = build_hall_basis(c, r)
    rng = random.Random(c * 10 + r)

    def coords(bound):
        return tuple(rng.randint(-bound, bound) for _ in range(basis.m))

    for small in (3, 1 << 64):
        for wide in (3, 1 << 64):
            for _ in range(10):
                u, v = coords(small), coords(wide)
                assert basis.mult(u, v) == series_coords_mult(basis, u, v), \
                    (u, v)


def test_a_non_integer_binomial_coefficient_raises(monkeypatch):
    # Half of x_0^2 is x_0/2 + C(x_0, 2): planted in a product coordinate,
    # it is not integer-valued, and the emitter refuses it.
    basis = build_hall_basis(3, 2)
    polys, width = derive(basis, "mult")
    x = Poly.var(0, width)
    planted = polys[:-1] + (polys[-1] + x * x // 2,)
    monkeypatch.setattr(deepthought, "derive",
                        lambda *args: (planted, width))
    with pytest.raises(ValueError, match="not an integer"):
        table_source.__wrapped__(basis, "mult")
    # x_0^2 = x_0 + 2·C(x_0, 2), C(x_0, k) numbered k - 1
    assert binomial_terms(x * x, width, 3) == {1: 1, 2: 2}


def multiplier_reads(tree):
    """For each returned coordinate of a `pow` table, how often it reads
    each multiplier: a binomial `e`, `b2`, `b3`, ..., or a combination
    `p<k>` of them."""
    ret = next(n for n in ast.walk(tree) if isinstance(n, ast.Return))
    return [collections.Counter(
        n.id for n in ast.walk(elt)
        if isinstance(n, ast.Name) and (n.id == "e" or n.id[0] in "bp"))
        for elt in ret.value.elts]


def test_power_tables_multiply_by_e_at_most_weight_times():
    # A coordinate of weight w of u**e has degree <= w in e: each of its
    # monomials t is multiplied by c_1·e + c_2·b2 + ... + c_w·b<w>, with
    # b<j> = C(e, j) computed once per call.  Monomials whose coefficient
    # vectors are proportional share one multiplier: the binomial itself,
    # or a local `p<k>`, an integer combination of binomials also computed
    # once per call, whose degree is that of its heaviest binomial.
    for c, r in SHIPPED:
        basis = build_hall_basis(c, r)
        name = table_module("pow", c, r)
        tree = ast.parse((TABLES / f"{name}.py").read_text())
        binoms = ["e"] + [f"b{j}" for j in range(2, basis.top_weight + 1)]
        assigned = {t.id: n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Assign) for t in n.targets
                    if isinstance(t, ast.Name) and t.id[0] in "bp"}
        assert [b for b in assigned if b[0] == "b"] == binoms[1:], name
        degree = {b: j for j, b in enumerate(binoms, 1)}
        combos = set()
        for p, value in assigned.items():
            if p[0] == "p":
                read = {n.id for n in ast.walk(value)
                        if isinstance(n, ast.Name)}
                assert read and read <= set(binoms), (name, p)
                degree[p] = max(degree[b] for b in read)
                # at b<j> = 2^(64j) a combination's value is its vector
                at = {b: 1 << 64 * j for j, b in enumerate(binoms, 1)}
                combos.add(eval(compile(ast.Expression(value), p, "eval"),
                                at))
        shared = [p for p in assigned if p[0] == "p"]
        assert len(combos) == len(shared), name
        reads = multiplier_reads(tree)
        assert len(reads) == basis.m, name
        for i, seen in enumerate(reads):
            assert seen and max(seen.values()) == 1 and max(
                degree[x] for x in seen) <= basis.weights[i + 1], \
                (name, i, seen)
        # every combination is read, and the heaviest coordinate reaches
        # its degree
        assert set(shared) <= set().union(*reads), name
        assert max(degree[x] for x in reads[-1]) == basis.top_weight, name
    reads = multiplier_reads(ast.parse((TABLES / "c5r3_pow.py").read_text()))
    assert sum(map(len, reads)) == 491


def test_top_weight_one_adds_and_scales_with_no_table():
    # Class 1 at ranks 1 to 9 and rank 1 at class 40 are abelian: a product
    # is the sum and a power, the inverse included, the multiple, through
    # the elements' `mult`, `inverse` and `power` as through the basis's
    # power polynomials, and no table loads.
    code = ("import random, sys\n"
            "import malcev as M\n"
            "rng = random.Random(1)\n"
            "for c, r in [(1, r) for r in range(1, 10)] + [(40, 1)]:\n"
            "    F = M.free_presentation(c, r)\n"
            "    u, v = ([rng.randrange(-1 << 63, 1 << 63) for _ in range(r)]\n"
            "            for _ in range(2))\n"
            "    g, h = M.element(F, u), M.element(F, v)\n"
            "    ok = M.mult(g, h).coords == tuple(x + y for x, y in zip(u, v))\n"
            "    ok &= M.inverse(g).coords == tuple(-x for x in u)\n"
            "    for e in (-1, 2, 1 << 70):\n"
            "        scaled = tuple(e * x for x in u)\n"
            "        ok &= M.power(g, e).coords == scaled\n"
            "        ok &= F.basis.pow_polynomials(u, e) == scaled\n"
            "    print(ok)\n"
            "print(sorted(m for m in sys.modules if m.startswith('malcev.tables')))\n")
    assert run_python(code) == ["True"] * 10 + ["[]"]


@pytest.mark.parametrize("c,r", [(3, 2), (5, 3)])
def test_inverse_makes_no_multiplication(c, r, table_calls):
    # The inverse is one call of the power polynomials at e = -1.
    basis = build_hall_basis(c, r)
    calls = table_calls(basis)
    rng = random.Random(c * 10 + r)
    for _ in range(5):
        u = tuple(rng.randint(-1 << 40, 1 << 40) for _ in range(basis.m))
        inv = basis.pow(u, -1)
        assert calls == {"pow_polynomials": 1}
        assert inv == series_coords_pow(basis, u, -1)
        assert basis.mult(u, inv) == (0,) * basis.m
        calls.clear()


def test_first_inverse_loads_the_power_table():
    # Products and torsion folds of elements load no power; the first
    # inverse that does not commute loads the power table, which then
    # serves every power.  No inverse table exists.  The torsion quotient
    # is built raw: a checked one sifts its relators under conjugation,
    # which inverts.
    assert not list(TABLES.glob("*_inverse.py"))
    code = ("import sys\n"
            "import malcev as M\n"
            "from malcev import build_hall_basis\n"
            "from malcev.presentations import FullFormMatrix, QuotientPresentation\n"
            "b = build_hall_basis(5, 3)\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('malcev.tables.'))\n"
            "b.mult((1,) * b.m, (2,) * b.m)\n"
            "g = M.element(M.free_presentation(5, 3), range(b.m))\n"
            "g = M.mult(g, g)\n"
            "central = [i for i in range(b.m) if b.weights[i + 1] == 5]\n"
            "rows = tuple(tuple(2 * (j == i) for j in range(b.m)) for i in central)\n"
            "torsion = QuotientPresentation(b, FullFormMatrix(rows))\n"
            "print(M.element(torsion, (3,) * b.m).coords[central[0]])\n"
            "print(*loaded(), '|')\n"
            "M.inverse(g)\n"
            "print(*loaded(), '|')\n"
            "M.power(g, 5)\n"
            "print(*loaded(), '|')\n")
    assert run_python(code) == ["1", "malcev.tables.c5r3", "|",
                                "malcev.tables.c5r3", "malcev.tables.c5r3_pow",
                                "|",
                                "malcev.tables.c5r3", "malcev.tables.c5r3_pow",
                                "|"]


def test_every_basis_loads_its_shipped_tables():
    # The one way to the polynomials is the basis's two modules in
    # `malcev.tables`, which the library loads from their files; imported
    # first, as here, they are the modules it uses.  The derivation is not
    # in the library.
    code = ("import importlib\n"
            "from malcev.freegroup import build_hall_basis\n"
            f"for c, r in {SHIPPED!r}:\n"
            "    b = build_hall_basis(c, r)\n"
            "    mult = importlib.import_module(f'malcev.tables.c{c}r{r}')\n"
            "    pow_ = importlib.import_module(f'malcev.tables.c{c}r{r}_pow')\n"
            "    print(b.mult is mult.mult and b.pow_polynomials is pow_.pow)\n"
            "for name in ('malcev.deepthought', 'malcev.series'):\n"
            "    try:\n"
            "        importlib.import_module(name)\n"
            "    except ModuleNotFoundError:\n"
            "        print('missing')\n")
    assert run_python(code) == ["True"] * len(SHIPPED) + ["missing"] * 2


def test_a_cold_load_skips_the_tables_package():
    # Loading a table does not import the package, and an import
    # afterwards returns the module the basis loaded.
    code = ("import importlib, sys\n"
            "from malcev.freegroup import build_hall_basis\n"
            "mult = build_hall_basis(2, 2).mult\n"
            "print('malcev.tables.c2r2' in sys.modules,"
            " 'malcev.tables' in sys.modules)\n"
            "print(importlib.import_module('malcev.tables.c2r2').mult is mult)\n")
    assert run_python(code) == ["True", "False", "True"]


# The `malcev.tables` modules a fresh process has loaded, after its code.
LOADED = ("print(sorted(m for m in __import__('sys').modules"
          " if m.startswith('malcev.tables')))\n")


def _cli(command, document):
    """Code that runs `malcev <command>` on a document from standard input."""
    return ("import io, sys\n"
            "from malcev import cli\n"
            f"sys.stdin = io.StringIO({document!r})\n"
            f"print(cli.run([{command!r}], out=io.StringIO()))\n")


def test_a_word_loads_the_product_only_when_a_power_fails_to_commute():
    # A normal-form word adds each letter power to its coordinate, so it
    # loads no table; a2 before a1 needs one product and loads exactly the
    # product table.
    code = ("from malcev.freegroup import build_hall_basis, eval_free\n"
            "basis = build_hall_basis(5, 3)\n"
            "word = ((1, 2), (2, -1), (3, 5), (4, 7), (20, 3))\n"
            "print(eval_free(basis, word) == (2, -1, 5, 7) + (0,) * 15 + (3,)"
            " + (0,) * (basis.m - 20))\n"
            + LOADED +
            "print(eval_free(basis, ((2, 1), (1, 1)))[:4] == (1, 1, 0, 1))\n"
            + LOADED)
    assert run_python(code) == ["True", "[]", "True",
                                "['malcev.tables.c5r3']"]


@pytest.mark.parametrize("command, document", [
    ("centralizer", "group c=3 r=2\nword a1^2 a2\n"),
    ("conj", "group c=3 r=2\nword a1^2 a2\nword a2 a1^2\n"),
], ids=["centralizer", "conj"])
def test_cold_descent_loads_only_the_tables_of_its_group(command, document):
    # The descent runs in G and in its layers, which add with no table, so
    # at (3,2) it loads no table of class 2.
    assert run_python(_cli(command, document) + LOADED) == [
        "0", "['malcev.tables.c3r2',", "'malcev.tables.c3r2_pow']"]


def test_cold_cli_runs_load_only_the_tables_they_use():
    # `nf` of a normal-form word at (5,3) loads no table, and `power` of
    # normal-form words at (4,2) loads only the power table.
    assert run_python(_cli("nf", "group c=5 r=3\nword a1^2 a3^-4 a9^5\n")
                      + LOADED) == ["0", "[]"]
    basis = build_hall_basis(4, 2)
    g = (1, 1) + (0,) * (basis.m - 2)
    words = ["word " + " ".join(f"a{i}^{e}" for i, e in coords_to_word(v))
             for v in (g, basis.pow(g, 3))]
    document = "\n".join(["group c=4 r=2", *words, ""])
    assert run_python(_cli("power", document) + LOADED) == [
        "0", "['malcev.tables.c4r2_pow']"]


def test_a_table_that_raises_is_not_kept(tmp_path, monkeypatch):
    # A table that raises part way leaves no module behind, so the next
    # use runs it again instead of reading what it had defined so far.
    (tmp_path / "c2r2.py").write_text(
        "def mult(u, v):\n    return u\n\nraise RuntimeError('half run')\n")
    monkeypatch.setattr(freegroup, "_TABLES", str(tmp_path))
    monkeypatch.delitem(sys.modules, "malcev.tables.c2r2", raising=False)
    basis = build_hall_basis(2, 2)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="half run"):
            freegroup._polynomials(basis, "mult")
        assert "malcev.tables.c2r2" not in sys.modules


# The power's Newton differences against the series engine's power with a
# polynomial exponent.  The Newton sum of the differences at e = -1, the
# sum of (-1)^j·Δ^j, is the inverse.
@pytest.mark.parametrize("c,r", [(2, 4), (3, 4), (6, 2)])
@pytest.mark.parametrize("kind", ["inverse", "pow"])
def test_newton_sums_match_the_series_derivation(c, r, kind):
    basis = build_hall_basis(c, r)
    (diffs, width), oracle = derive(basis, "pow"), series_derive(basis, kind)[0]
    e = -1 if kind == "inverse" else Poly.var(basis.m, width)
    polys = [sum(b * d for b, d in zip(binomials(e, len(coord)), coord))
             for coord in diffs]
    assert [(p.terms, p.den) for p in polys] == \
        [(p.terms, p.den) for p in oracle]


EXPONENTS = (-1, 0, 1, 1 << 64, -(1 << 64))


@pytest.mark.parametrize("c,r", [(3, 3), (4, 2), (5, 2), (5, 3), (2, 4), (3, 4),
                                 (6, 2)])
def test_engine_matches_series_oracle(c, r):
    basis = build_hall_basis(c, r)
    rng = random.Random(c * 10 + r)
    bound = 1 << 32

    def coords():
        return tuple(rng.randint(-bound, bound) for _ in range(basis.m))

    for _ in range(4):
        u, v = coords(), coords()
        assert basis.mult(u, v) == series_coords_mult(basis, u, v)
        e = rng.choice(EXPONENTS[3:])
        assert basis.pow(u, e) == series_coords_pow(basis, u, e)
        word = tuple((rng.randint(1, basis.m), rng.choice(EXPONENTS))
                     for _ in range(6))
        assert eval_free(basis, word) == series_eval(basis, word)
    u = coords()
    for e in EXPONENTS[:3]:
        assert basis.pow(u, e) == series_coords_pow(basis, u, e)


def test_import_loads_no_table_or_derivation():
    # `import malcev` loads the arithmetic and the procedures, and no table,
    # derivation or test oracle; this is what a cold CLI process pays for.
    loaded = run_python("import sys, malcev; print(*sys.modules)")
    assert sorted(m for m in loaded if m.split(".")[0] == "malcev") == [
        "malcev", "malcev.decisions", "malcev.extgcd", "malcev.freegroup",
        "malcev.groups", "malcev.presentations", "malcev.subgroups"]
    # Neither the library nor the CLI loads `dataclasses` or `inspect`, which
    # cost a cold process about 20 ms.  What a bare interpreter already holds
    # (through a site `.pth` file, say) is not counted against either.
    bare = set(run_python("import sys; print(*sys.modules)"))
    cli = run_python("import sys, malcev.cli; print(*sys.modules)")
    for added in (set(loaded) - bare, set(cli) - bare):
        assert not added & {"dataclasses", "inspect"}
