"""The multiplication and inverse polynomials against the Magnus-series
engine they are derived from, which stays as the oracle."""

import functools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from malcev.deepthought import table_source
from malcev.freegroup import (SHIPPED_MAX, build_hall_basis, coords_inverse,
                              coords_mult, coords_pow, coords_to_word,
                              eval_free, power_differences,
                              power_from_differences, table_module)
from malcev.series import SeriesBasis, series_mult, series_power

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
TABLES = SRC / "malcev" / "tables"


def run_python(code):
    """Stdout words of `code` run in a fresh interpreter on this source."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    return out.stdout.split()


@functools.cache
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


def test_shipped_tables_match_a_fresh_derivation():
    shipped = sorted(p.name for p in TABLES.glob("c*r*.py"))
    expected = []
    for c in range(1, SHIPPED_MAX[0] + 1):
        for r in range(1, SHIPPED_MAX[1] + 1):
            basis = build_hall_basis(c, r)
            if basis.top_weight < c:
                continue  # uses the table of its heaviest letter's weight
            for kind in ("mult", "inverse"):
                name = f"{table_module(kind, c, r)}.py"
                expected.append(name)
                text = (TABLES / name).read_text()
                assert text == table_source(basis, kind), name
    assert shipped == sorted(expected)
    assert len(shipped) == 22


def test_rank_one_uses_the_class_one_table_at_any_class():
    code = ("import sys\n"
            "from malcev.freegroup import build_hall_basis\n"
            "from malcev.tables import c1r1, c1r1_inverse\n"
            "b = build_hall_basis(40, 1)\n"
            "print(b.mult is c1r1.mult,"
            " b.inverse is c1r1_inverse.inverse,"
            " 'malcev.deepthought' in sys.modules)")
    assert run_python(code) == ["True", "True", "False"]
    basis = build_hall_basis(40, 1)
    assert coords_pow(basis, (3,), -(1 << 70)) == (-3 << 70,)
    assert coords_pow(basis, (3,), -1) == (-3,)
    assert coords_mult(basis, (5,), (-7,)) == (-2,)


@pytest.mark.parametrize("c,r", [(3, 2), (5, 3)])
def test_inverse_makes_no_multiplication(c, r, monkeypatch):
    basis = build_hall_basis(c, r)
    mult = basis.mult
    calls = []

    def counted(u, v):
        calls.append(1)
        return mult(u, v)

    monkeypatch.setitem(basis.__dict__, "mult", counted)
    rng = random.Random(c * 10 + r)
    for _ in range(5):
        u = tuple(rng.randint(-1 << 40, 1 << 40) for _ in range(basis.m))
        inv = coords_inverse(basis, u)
        assert coords_pow(basis, u, -1) == inv
        assert not calls
        # the Newton sum at e = -1, which makes c - 1 multiplies
        assert power_from_differences(power_differences(basis, u), -1) == inv
        assert len(calls) == c - 1
        assert coords_mult(basis, u, inv) == (0,) * basis.m
        calls.clear()


def test_inverse_table_loads_on_the_first_inverse():
    # Products, powers and torsion folds of elements make no inverse.  The
    # torsion quotient is built raw: a checked one sifts its relators under
    # conjugation, which inverts.
    code = ("import sys\n"
            "import malcev as M\n"
            "from malcev import build_hall_basis, coords_inverse, coords_mult\n"
            "from malcev.presentations import FullFormMatrix, QuotientPresentation\n"
            "b = build_hall_basis(5, 3)\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('malcev.tables.'))\n"
            "coords_mult(b, (1,) * b.m, (2,) * b.m)\n"
            "g = M.element(M.free_presentation(5, 3), range(b.m))\n"
            "M.power(M.mult(g, g), 5)\n"
            "central = [i for i in range(b.m) if b.weight(i + 1) == 5]\n"
            "rows = tuple(tuple(2 * (j == i) for j in range(b.m)) for i in central)\n"
            "torsion = QuotientPresentation(b, FullFormMatrix(rows))\n"
            "print(M.element(torsion, (3,) * b.m).coords[central[0]])\n"
            "print(*loaded(), 'deepthought' if 'malcev.deepthought' in sys.modules else '-')\n"
            "coords_inverse(b, (1,) * b.m)\n"
            "print(*loaded(), 'deepthought' if 'malcev.deepthought' in sys.modules else '-')\n")
    assert run_python(code) == ["1", "malcev.tables.c5r3", "-",
                                "malcev.tables.c5r3",
                                "malcev.tables.c5r3_inverse", "-"]


def test_unshipped_inverse_derives_no_series_again():
    # At (3,4), which ships no tables: products and powers derive only the
    # product polynomials, and the first inverse reuses the basis's series.
    code = ("import malcev.deepthought as D\n"
            "from malcev import build_hall_basis, coords_inverse, coords_mult, coords_pow\n"
            "kinds, built = [], []\n"
            "derive, series_basis = D.derive, D.SeriesBasis\n"
            "D.derive = lambda b, kind: kinds.append(kind) or derive(b, kind)\n"
            "D.SeriesBasis = lambda b: built.append(b) or series_basis(b)\n"
            "b = build_hall_basis(3, 4)\n"
            "u = tuple(range(1, b.m + 1))\n"
            "coords_pow(b, coords_mult(b, u, u), 5)\n"
            "print(*kinds, len(built))\n"
            "coords_inverse(b, u)\n"
            "print(*kinds, len(built))\n")
    assert run_python(code) == ["mult", "1", "mult", "inverse", "1"]


EXPONENTS = (-1, 0, 1, 1 << 64, -(1 << 64))


# (3,3) (4,2) (5,2) (5,3) ship tables; (2,4) and (3,4) are derived on first use.
@pytest.mark.parametrize("c,r", [(3, 3), (4, 2), (5, 2), (5, 3), (2, 4), (3, 4)])
def test_engine_matches_series_oracle(c, r):
    basis = build_hall_basis(c, r)
    rng = random.Random(c * 10 + r)
    bound = 1 << 32

    def coords():
        return tuple(rng.randint(-bound, bound) for _ in range(basis.m))

    for _ in range(4):
        u, v = coords(), coords()
        assert coords_mult(basis, u, v) == series_coords_mult(basis, u, v)
        e = rng.choice(EXPONENTS[3:])
        assert coords_pow(basis, u, e) == series_coords_pow(basis, u, e)
        word = tuple((rng.randint(1, basis.m), rng.choice(EXPONENTS))
                     for _ in range(6))
        assert eval_free(basis, word) == series_eval(basis, word)
    u = coords()
    for e in EXPONENTS[:3]:
        assert coords_pow(basis, u, e) == series_coords_pow(basis, u, e)


def test_import_loads_no_table_or_derivation():
    loaded = run_python("import sys, malcev; print(*sys.modules)")
    assert "malcev.freegroup" in loaded
    assert not [m for m in loaded if m.startswith("malcev.tables")
                or m in ("malcev.deepthought", "malcev.series")]
