"""Write the shipped polynomial tables, src/malcev/tables/c<c>r<r>.py and
src/malcev/tables/c<c>r<r>_pow.py, for every basis of
`malcev.freegroup.SHIPPED_RANKS` of top weight >= 2.  A basis of top weight
1 (class 1, or rank 1 at any class) is abelian: the library adds and scales
its coordinates itself, so it gets no module.

For the free nilpotent group of class c and rank r, the two modules define
`mult(u, v)` and `pow(u, e)`, each derived by `deepthought.table_source`
(tools/deepthought.py, which runs the Magnus-series engine of
tools/series.py): straight-line code that forms each distinct monomial of
degree >= 2 in its variables once, as a shorter monomial times one
variable, and keeps a monomial that is read more than once in a local
`t<k>`.  A product computes the binomials C(x, k) of the coordinates it
reads, `x_2 = x*(x - 1)//2`, `x_3 = x_2*(x - 2)//3`, ..., and writes each
coordinate as an integer combination of products of them, with no
division; a power computes, once per call, the binomials C(e, j) and the
integer combinations of them that its coordinates read, and writes each
coordinate over one denominator as one integer combination of monomials
times each binomial or combination it reads.  The inverse is the power at
e = -1.  They are separate modules so that a process that only multiplies
does not import, and with bytecode writing off compile, the power.  The
whole grid takes about 4 s of CPU, most of it (8, 2).

    python tools/gen_tables.py

CI runs it and fails if the checked-in tables differ from a fresh derivation.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from deepthought import table_source  # noqa: E402
from malcev.freegroup import (SHIPPED_RANKS, build_hall_basis,  # noqa: E402
                              table_module)


def main() -> None:
    out = ROOT / "src" / "malcev" / "tables"
    for c, top in SHIPPED_RANKS.items():
        for r in range(1, top + 1):
            basis = build_hall_basis(c, r)
            if basis.top_weight == 1:
                continue
            for kind in ("mult", "pow"):
                path = out / f"{table_module(kind, c, r)}.py"
                path.write_text(table_source(basis, kind))
                print(path.relative_to(ROOT))


if __name__ == "__main__":
    main()
