"""Print one digest over the answers of the benchmark's seeded inputs, so two
revisions of the library can be compared for identical answers.

    python tools/answer_digest.py

It answers, in this process:

* the cli_cold documents `perfbench/clidocs.cli_documents(seed, batch)` for
  seeds 1-3 and batches 0-3, each through `malcev.cli.run`: the exit code,
  stdout and stderr;
* the finite_decisions plans `perfbench/workloads.finite_plan(seed, 3)` and
  the deep_arith plans `perfbench/workloads.deep_plan(seed, 2)` for seeds
  7-10, each query through `perfbench/workloads.queries`: its answer, or
  the type and text of the exception it raised.  The deep_arith plans
  power, multiply and invert in the free groups of class and rank (3,3)
  (4,2) (5,2) (5,3);
* the plans `torsion_plan(seed, 2)` for seeds 7-10, answered the same way:
  every kind of TORSION_KINDS in three finite quotients with relator rows
  that do not commute by weight, so that their torsion folds power a
  relator row, which no benchmark workload does.

It prints the number of answers and the SHA-1 over all of them, compares
that line with the one pinned in tools/answer_digest.txt, and exits 1 when
they differ; a change that means to change answers updates the pin.  It only
reads perfbench/.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PIN = ROOT / "tools" / "answer_digest.txt"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/

import clidocs  # noqa: E402
import workloads  # noqa: E402

import malcev as M  # noqa: E402
import malcev.cli  # noqa: E402


def cli_answers():
    for seed in (1, 2, 3):
        for batch in range(4):
            for doc in clidocs.cli_documents(seed, batch):
                out, err = io.StringIO(), io.StringIO()
                stdin, sys.stdin = sys.stdin, io.StringIO(doc.text)
                try:
                    code = malcev.cli.run(doc.argv, out, err)
                finally:
                    sys.stdin = stdin
                yield [doc.name, code, out.getvalue(), err.getvalue()]


def plan_answers(make_plan, rounds):
    for seed in (7, 8, 9, 10):
        plan = make_plan(seed, rounds)
        for step in plan.steps:
            pres = plan.presentations[step.pres]
            decoded = [M.element(pres, c) for c in step.elements]
            results = []
            for call in workloads.queries(M, pres, step.kind, decoded,
                                          step.numbers, step.words):
                try:
                    results.append(call(results))
                except Exception as exc:  # an answer too, compared as text
                    results.append([type(exc).__name__, str(exc)])
            yield [plan.label(step), workloads.encode(results)]


# F(3,2)/<a1^4, a2^2 a1^2>, whose relator row (2, 2, 0, 0, 0) at column 1
# does not commute by weight, F(5,3)/<a1^4, a2^2 a1^2, a3^3>, whose rows at
# columns 1 and 4 do not, and F(3,2)/<a1^4, a2^4, (a2 a1)^2>, whose row at
# column 1 does not.  In the first two, q times such a row lies in the
# relator subgroup, so a fold that subtracted it, as if the row commuted,
# would give the same answers; in the third it does not.
TORSION_QUOTIENTS = (((3, 2), [((1, 4),), ((2, 2), (1, 2))]),
                     ((5, 3), [((1, 4),), ((2, 2), (1, 2)), ((3, 3),)]),
                     ((3, 2), [((1, 4),), ((2, 4),), ((2, 1), (1, 1)) * 2]))
# Each kind with the number of elements its query reads.
TORSION_KINDS = {"power": 1, "inverse": 1, "assoc": 3, "member": 3,
                 "centralizer": 1, "conjugacy": 2, "power_problem": 2,
                 "element_order": 1}


@functools.cache
def torsion_presentations():
    return [M.from_finite_presentation(M.build_hall_basis(c, r), rels)
            for (c, r), rels in TORSION_QUOTIENTS]


def torsion_plan(seed: int, rounds: int) -> workloads.Plan:
    """Each round runs every kind of TORSION_KINDS on each quotient, with
    32-bit entries, which their elements reduce, and 64-bit exponents.  In
    every other round the second element of a conjugacy or power problem is
    a conjugate or a power of the first, so that both answers occur."""
    presentations = torsion_presentations()
    rng = random.Random(seed ^ 0x70F5)
    bound = 1 << 32
    plan = workloads.Plan(presentations, [])
    for n in range(rounds):
        for i, pres in enumerate(presentations):
            for kind, count in TORSION_KINDS.items():
                elements = [[rng.randint(-bound, bound) for _ in range(pres.m)]
                            for _ in range(count)]
                numbers = [rng.randint(-bound * bound, bound * bound)
                           for _ in range(2)]
                if n % 2 and kind in ("conjugacy", "power_problem"):
                    g, x = (M.element(pres, v) for v in elements)
                    h = (M.mult(M.mult(x, g), M.inverse(x))
                         if kind == "conjugacy" else M.power(g, numbers[0]))
                    elements[1] = list(h.coords)
                plan.steps.append(workloads.Step(kind, i, elements, numbers))
    return plan


def main() -> None:
    digest = hashlib.sha1()
    count = 0
    for answer in (*cli_answers(), *plan_answers(workloads.finite_plan, 3),
                   *plan_answers(workloads.deep_plan, 2),
                   *plan_answers(torsion_plan, 2)):
        digest.update(json.dumps(answer).encode() + b"\n")
        count += 1
    line = f"{count} answers sha1 {digest.hexdigest()}"
    print(line)
    if line != (pinned := PIN.read_text().strip()):
        print(f"differs from {PIN.name}: {pinned}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
