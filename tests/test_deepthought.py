"""The multiplication polynomials against the Magnus-series engine they are
derived from, which stays as the oracle."""

import functools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from malcev.deepthought import mult_source
from malcev.freegroup import (SHIPPED_MAX, build_hall_basis, coords_mult,
                              coords_pow, coords_to_word, eval_free)
from malcev.series import SeriesBasis, series_mult, series_power

TABLES = pathlib.Path(__file__).resolve().parent.parent / "src" / "malcev" / "tables"


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
            name = f"c{c}r{r}.py"
            expected.append(name)
            text = (TABLES / name).read_text()
            assert text == mult_source(basis), name
    assert shipped == sorted(expected)


def test_rank_one_uses_the_class_one_table_at_any_class():
    code = ("import sys\n"
            "from malcev.freegroup import _mult, build_hall_basis\n"
            "from malcev.tables import c1r1\n"
            "print(_mult(build_hall_basis(40, 1)) is c1r1.mult,"
            " 'malcev.deepthought' in sys.modules)")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.split() == ["True", "False"]
    basis = build_hall_basis(40, 1)
    assert coords_pow(basis, (3,), -(1 << 70)) == (-3 << 70,)
    assert coords_mult(basis, (5,), (-7,)) == (-2,)


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
    code = "import sys, malcev; print(*sys.modules)"
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    loaded = out.stdout.split()
    assert "malcev.freegroup" in loaded
    assert not [m for m in loaded if m.startswith("malcev.tables")
                or m in ("malcev.deepthought", "malcev.series")]
