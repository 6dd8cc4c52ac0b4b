"""Print the figures of CI's informational step summary; none gates anything.

Sizes; loads of c2r2 (one table's floor), c8r2 and c8r2_pow (the largest),
c5r3 (which a cold `nf` at (5,3) loads only for a letter power that does not
commute) and c5r3_pow, with peak RSS, and `import malcev.cli`, timed inside;
cold CLI runs; the stdlib modules or tables these add (the CLI's read under
`-v`, whose stderr lists the modules held at exit); the `_tower` cache and
`_graph` counts of `workloads.finite_plan(1, 68)`, and the compiled `mult`
and `pow_polynomials` calls of its queries by query kind; "Product table
operations", the binary operators of the (5,3) and (8,2) product tables
and the warm time of one (5,3) product on entries drawn in [-2^32, 2^32];
"Power table operations", the binary operators of the (5,3) and (8,2)
power tables and the warm times of one (5,3) power to a 64-bit exponent
and of one inverse on those entries;
the scans, the compiled calls and the time of one `consistency_check` on
F(5,3)/<a1^2, a2^2, a3^2>; the compiled calls of `subgroup_presentation` at
(5,3) on three rows drawn in [-9, 9] by `random.Random(7)`.  The calls and
scans are counted in-process, so they do not drift with the host.  Times
are medians of 9.
"""

import ast
import collections
import os
import pathlib
import random
import statistics
import subprocess
import sys
import tempfile
import time
import timeit

LIB = pathlib.Path(__file__).resolve().parent.parent / "src" / "malcev"
LOAD = ("import malcev, resource, time; t = time.perf_counter(); malcev.{};"
        " print(time.perf_counter() - t,"
        " resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
IMPORT = ("import sys; bare = [*sys.modules]; import time;"
          " t = time.perf_counter(); import malcev.cli;"
          " print(time.perf_counter() - t); print(*bare); print(*sys.modules)")


def fresh(*args):
    """Run `python <args>` in 9 fresh processes: median wall time, outputs."""
    env = dict(os.environ, PYTHONPATH=LIB.parent, PYTHONDONTWRITEBYTECODE="1")
    times, outputs = [], []
    for _ in range(9):
        start = time.perf_counter()
        run = subprocess.run([sys.executable, *args], env=env, check=True,
                             capture_output=True, text=True)
        times.append(time.perf_counter() - start)
        outputs.append((run.stdout.splitlines(), run.stderr))
    return f"median {1000 * statistics.median(times):.1f} ms wall", outputs


def meter(basis, tick):
    """Call tick(kind) on each call of the basis's compiled `mult` and
    `pow_polynomials` tables."""
    for kind in ("mult", "pow_polynomials"):
        table = getattr(basis, kind)
        basis.__dict__[kind] = (lambda *args, kind=kind, table=table:
                                tick(kind) or table(*args))


def main():
    size = lambda glob: sum(p.stat().st_size for p in LIB.glob(glob))
    lines = sum(p.read_bytes().count(b"\n") for p in LIB.glob("*.py"))
    print(f"Source lines: {lines} total\nTable source bytes: "
          f"{size('tables/*.py')}\nTable source bytes per kind: mult "
          f"{size('tables/c?r?.py')}, pow {size('tables/c?r?_pow.py')}")
    for table in ("c2r2", "c8r2", "c8r2_pow", "c5r3", "c5r3_pow"):
        load = f"build_hall_basis({table[1]}, {table[3]})." + (
            "pow_polynomials" if "_" in table else "mult")
        runs = [out[0].split() for out, _ in fresh("-c", LOAD.format(load))[1]]
        s, kb = (statistics.median(map(float, x)) for x in zip(*runs))
        print(f"load {table} ({load}): median {1000 * s:.1f} ms wall, peak"
              f" RSS {kb / 1024:.1f} MB, in 9 fresh processes")
    outputs = [out for out, _ in fresh("-c", IMPORT)[1]]
    s = statistics.median(float(out[0]) for out in outputs)
    bare, after = (set(line.split()) for line in outputs[0][1:])
    stdlib = lambda names: " ".join(sorted(
        n for n in names - bare if n.split(".")[0] != "malcev"))
    held = lambda err: {line.split()[-1] for line in err.splitlines()
                        if line.startswith("# cleanup[2] removing ")}
    print(f"import malcev.cli: median {1000 * s:.1f} ms wall in 9 fresh "
          f"processes\nStdlib modules it adds: {stdlib(after)}")
    wall, outputs = fresh("-v", "-m", "malcev", "extgcd", "6", "10", "15")
    print(f"python -m malcev extgcd 6 10 15: {wall} in 9 fresh processes\n"
          f"Stdlib modules that run adds: {stdlib(held(outputs[0][1]))}")
    with tempfile.TemporaryDirectory() as docs:
        for name, word in (("normal-form.txt", "a1^2 a3^-4 a9^5"),
                           ("one-product.txt", "a2 a1")):
            path = pathlib.Path(docs, name)
            path.write_text(f"group c=5 r=3\nword {word}\n")
            wall, outputs = fresh("-v", "-m", "malcev", "nf", path)
            print(f"python -m malcev nf {name}: {wall} in 9 fresh processes;"
                  " tables loaded:", *sorted(m for m in held(outputs[0][1])
                  if m.startswith("malcev.tables.")) or ["none"])
    sys.path[:0] = [str(LIB.parent), str(LIB.parent.parent / "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
    import malcev as M, workloads  # after the children: their RSS counts ours
    plan, graphs, graph = workloads.finite_plan(1, 68), [], M.decisions._graph
    M.decisions._graph = lambda *args: graphs.append(1) or graph(*args)
    by_kind = collections.Counter()
    for basis in {pres.basis for pres in plan.presentations}:
        if basis.top_weight > 1:  # one of top weight 1 adds, with no table
            meter(basis, lambda kind: by_kind.update((step.kind,)))
    for step in plan.steps:
        pres, answers = plan.presentations[step.pres], []
        for query in workloads.queries(M, pres, step.kind, [M.element(
                pres, g) for g in step.elements], step.numbers, step.words):
            answers.append(query(answers))
    print("finite_plan(1, 68) in one process:",
          M.decisions._tower.cache_info(), len(graphs), "graphs")
    print("finite_plan(1, 68) compiled calls by query kind in one process:",
          ", ".join(f"{kind} {n}" for kind, n in sorted(by_kind.items())))
    basis = M.build_hall_basis(5, 3)
    ops = {table: sum(isinstance(node, ast.BinOp) for node in ast.walk(
        ast.parse((LIB / "tables" / f"{table}.py").read_text())))
        for table in ("c5r3", "c8r2", "c5r3_pow", "c8r2_pow")}
    rng = random.Random(5)
    u, v = ([rng.randint(-1 << 32, 1 << 32) for _ in range(basis.m)]
            for _ in range(2))
    # before the meter, which would add its own time
    times = timeit.repeat(lambda: basis.mult(u, v), number=200, repeat=9)
    print(f"Product table operations: c5r3 {ops['c5r3']}, c8r2 {ops['c8r2']};"
          " one (5,3) product on 32-bit entries: median"
          f" {1e6 * statistics.median(times) / 200:.1f} us warm of 9")
    power, inverse = (statistics.median(timeit.repeat(
        lambda: basis.pow(u, e), number=200, repeat=9)) / 200
        for e in (rng.getrandbits(64), -1))
    print(f"Power table operations: c5r3_pow {ops['c5r3_pow']}, c8r2_pow"
          f" {ops['c8r2_pow']}; one (5,3) power to a 64-bit exponent on"
          f" 32-bit entries: median {1e6 * power:.1f} us, one inverse:"
          f" median {1e6 * inverse:.1f} us, warm of 9")
    pres = M.from_finite_presentation(basis, [((k, 2),) for k in (1, 2, 3)])
    times = []
    for _ in range(9):  # before the meter, which would add its own time
        start = time.perf_counter()
        M.consistency_check(pres)
        times.append(time.perf_counter() - start)
    calls, scans = collections.Counter(), []
    scan = M.subgroups._membership_scan
    meter(basis, lambda kind: calls.update((kind,)))
    M.subgroups._membership_scan = lambda *args: scans.append(1) or scan(*args)
    M.consistency_check(pres)
    M.subgroups._membership_scan = scan
    print("consistency_check of F(5,3)/<a1^2, a2^2, a3^2> in one process:",
          len(scans), "scans,", calls.total(), "compiled calls, median"
          f" {1000 * statistics.median(times):.1f} ms wall of 9")
    pres = M.free_presentation(5, 3)
    calls.clear()
    rng = random.Random(7)
    rows = [[rng.randint(-9, 9) for _ in range(pres.m)] for _ in range(3)]
    M.subgroup_presentation(pres, M.coordinate_matrix(pres, rows))
    print("subgroup_presentation at (5,3) seed 7 in one process:",
          calls["mult"], "mult and", calls["pow_polynomials"],
          "pow_polynomials calls")


if __name__ == "__main__":
    main()
