"""Write the shipped multiplication tables, src/malcev/tables/c<c>r<r>.py.

Each module defines `mult(u, v)` for the free nilpotent group of class c and
rank r (c <= 5, r <= 3), derived by `malcev.deepthought.mult_source`.  A
basis whose heaviest letter is lighter than c (rank 1 above class 1) gets no
module: it uses the table of that letter's weight.

    python tools/gen_tables.py

CI runs it and fails if the checked-in tables differ from a fresh derivation.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from malcev.deepthought import mult_source  # noqa: E402
from malcev.freegroup import SHIPPED_MAX, build_hall_basis  # noqa: E402


def main() -> None:
    out = ROOT / "src" / "malcev" / "tables"
    for c in range(1, SHIPPED_MAX[0] + 1):
        for r in range(1, SHIPPED_MAX[1] + 1):
            basis = build_hall_basis(c, r)
            if basis.top_weight < c:
                continue
            path = out / f"c{c}r{r}.py"
            path.write_text(mult_source(basis))
            print(path.relative_to(ROOT))


if __name__ == "__main__":
    main()
