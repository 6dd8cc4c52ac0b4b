"""The shipped multiplication and power polynomials, whose value at e = -1
is the inverse, against their derivation by `tools/deepthought.py` and the
Magnus-series engine of `tools/series.py`, which derives the product and
stays as the oracle for the power.  The library derives nothing itself."""

import ast
import collections
import os
import pathlib
import random
import subprocess
import sys

import pytest

from conftest import (ACCEPTED, SHIPPED, series_coords_mult, series_coords_pow,
                      series_derive, series_eval)
from deepthought import Poly, derive, table_source
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


def monomial_locals(tree):
    """Times each local `t<k>` is read, by name."""
    reads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id[0] == "t" \
                and node.id[1:].isdigit():
            count = isinstance(node.ctx, ast.Load)
            reads[node.id] = reads.get(node.id, 0) + count
    return reads


def constant(node):
    """True for a literal, including a negative one such as -2, which the
    parser reads as a minus applied to 2 and the compiler folds."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant)


def products(tree):
    """Products of two non-constant factors, and powers."""
    return sum(isinstance(node, ast.BinOp) and (
        isinstance(node.op, ast.Pow) or isinstance(node.op, ast.Mult)
        and not constant(node.left) and not constant(node.right))
        for node in ast.walk(tree))


def test_emitted_tables_build_each_monomial_once():
    trees = {p.stem: ast.parse(p.read_text()) for p in TABLES.glob("c*r*.py")}
    for name, tree in trees.items():
        reads = monomial_locals(tree)
        # a monomial read once is written inline
        assert all(n >= 2 for n in reads.values()), name
        # no term or monomial shares a monomial in these tables
        if name.startswith(("c2r2", "c2r3")):
            assert not reads, name
    # 489 products form the distinct monomials of degree >= 2; written
    # flat, as a product for each term, they took 2,058 products.
    assert products(trees["c5r3"]) <= 489
    # The differences of u^0 .. u^5 read 276 products of monomials, then 4
    # form the binomials b2 .. b5 and 345 multiply a difference by its
    # binomial (`test_power_tables_multiply_by_e_at_most_weight_times`).
    assert products(trees["c5r3_pow"]) <= 276 + 4 + 345


def binomial_reads(tree):
    """For each returned coordinate of a `pow` table, how often it reads
    each binomial `e`, `b2`, `b3`, ..."""
    ret = next(n for n in ast.walk(tree) if isinstance(n, ast.Return))
    return [collections.Counter(
        n.id for n in ast.walk(elt)
        if isinstance(n, ast.Name) and (n.id == "e" or n.id[0] == "b"))
        for elt in ret.value.elts]


def test_power_tables_multiply_by_e_at_most_weight_times():
    # A coordinate of weight w of u**e has degree <= w in e.  In Newton
    # form it is the sum over j <= w of C(e, j)·Δ^j, so it multiplies once
    # by each of at most w binomials e = C(e, 1), b2 = C(e, 2), ..., which
    # are computed once per call.
    for c, r in SHIPPED:
        basis = build_hall_basis(c, r)
        name = table_module("pow", c, r)
        tree = ast.parse((TABLES / f"{name}.py").read_text())
        binoms = ["e"] + [f"b{j}" for j in range(2, basis.top_weight + 1)]
        assigned = [t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
                    for t in n.targets
                    if isinstance(t, ast.Name) and t.id[0] == "b"]
        assert assigned == binoms[1:], name
        reads = binomial_reads(tree)
        assert len(reads) == basis.m, name
        for i, seen in enumerate(reads):
            assert seen and set(seen) <= set(binoms[:basis.weights[i + 1]]) \
                and max(seen.values()) == 1, (name, i, seen)
        # the heaviest coordinate reaches its degree
        assert set(reads[-1]) == set(binoms), name
    reads = binomial_reads(ast.parse((TABLES / "c5r3_pow.py").read_text()))
    assert sum(map(len, reads)) == 345


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
