"""The malcev benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see perfbench/README.md for why each was chosen):
  finite_decisions  decision procedures on seeded finite quotients, warm
  deep_arith        free-group arithmetic with exponents up to 2^64, warm
  cli_cold          one fresh interpreter per seeded CLI document

A run answers a fixed number of query rounds, sized by --seconds: at 15 its
in-process queries take 10 to 11 s at the reference speed below on a 2-core
x86 VM with Python 3.11, and a cli_cold run takes 35 to 48 s of wall time
there; the same seed always gives the same queries.  With --trace 0 the run
prints the end-to-end metrics: set-up time, query throughput, median and
tail latency, and peak memory.  Every time is scaled to one host speed by a
reference block timed next to it (hostspeed.py), because the shared hosts it
runs on drift in speed by up to 2x.  With --trace 1 it answers the same
rounds twice, untraced and then traced with every public boundary of
src/malcev wrapped, and prints per-layer call counts and self times instead.
Every answer is checked; the last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

import workloads
from tracer import finalize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("finite_decisions", "deep_arith", "cli_cold")
# Fresh set-up processes per run, half before and half after the process
# that answers the queries; its own set-up is one more sample.
SETUP_CHILDREN = 12
# Query rounds per requested second.
ROUNDS_PER_S = {"finite_decisions": 4.5, "deep_arith": 3.65, "cli_cold": 0.27}
WORKER_TIMEOUT_S = 170


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it, by
    nearest rank, and its value."""
    xs = sorted(latencies)
    n = len(xs)
    p = max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50
    rank = max(1, math.ceil(p * n / 100))
    return p, xs[rank - 1]


def worker(*args, stdin: str | None = None) -> dict:
    """Run one worker process; its last stdout line is its report, and the
    lines before it, if any, are the answers of its steps."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, WORKER, *map(str, args)],
                          input=stdin, capture_output=True, text=True,
                          env=env, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"worker {args} exited {proc.returncode}")
    *answers, last = proc.stdout.strip().splitlines()
    report = json.loads(last)
    report["answers"] = [json.loads(line) for line in answers]
    return report


def metric(value, unit):
    return {"value": value, "unit": unit}


def answer(workload: str, seed: int, trace: bool, rounds: int, plan) -> dict:
    """One untraced or traced pass in a fresh worker.  In-process answers
    are checked here, against the plan, after the worker has exited."""
    if workload == "cli_cold":
        return worker("cli", seed, int(trace), rounds)
    wire = json.dumps([step.wire() for step in plan.steps])
    run = worker("run", workload, seed, int(trace), stdin=wire)
    import malcev as M
    for step, answers in zip(plan.steps, run["answers"]):
        if answers is None:  # failed in the worker, already counted
            continue
        try:
            reason = workloads.check(M, plan, step, answers)
        except Exception as exc:
            reason = f"checker raised {type(exc).__name__}: {exc}"[:200]
        if reason:
            run["failed"] += len(answers)
            if len(run["errors"]) < 10:
                run["errors"].append(f"{plan.label(step)}: {reason}")
        else:
            run["ok"] += len(answers)
    return run


def end_to_end(workload: str, seed: int, rounds: int, plan) -> tuple[dict, dict]:
    setups = []
    children = 0 if workload == "cli_cold" else SETUP_CHILDREN
    for _ in range(children // 2):
        setups += worker("setup", workload, seed)["setup_s"]
    run = answer(workload, seed, False, rounds, plan)
    for _ in range(children - children // 2):
        setups += worker("setup", workload, seed)["setup_s"]
    setups += run["setup_s"]
    lat = run["latencies"]
    p, tail_s = tail(lat)
    print(f"{workload} seed={seed}: {run['attempted']} queries in"
          f" {run['query_s']:.3f} s of query time at the reference speed"
          f" ({run['raw_query_s']:.3f} s as timed), {run['failed']} failed"
          f" (error_rate {run['failed'] / run['attempted']:.4f});"
          f" tail is p{p} of {len(lat)} samples; setup median of"
          f" {len(setups)} samples")
    for err in run["errors"]:
        print("  failed:", err)
    return run, {
        "setup_s": metric(statistics.median(setups), "s"),
        "queries_per_s": metric(run["ok"] / run["query_s"], "1/s"),
        "query_p50_ms": metric(1000 * statistics.median(lat), "ms"),
        "query_tail_ms": metric(1000 * tail_s, "ms"),
        "peak_rss_mb": metric(run["rss_mb"], "MB"),
    }


def per_layer(workload: str, seed: int, rounds: int, plan) -> tuple[dict, dict]:
    base = answer(workload, seed, False, rounds, plan)
    run = answer(workload, seed, True, rounds, plan)
    # Self times are not scaled, so their share is of the unscaled time.
    raw = finalize(run["trace"], run["raw_query_s"])
    qps = run["ok"] / run["query_s"]
    base_qps = base["ok"] / base["query_s"]
    print(f"{workload} seed={seed}: tracing overhead: traced {run['ok']}"
          f" queries in {run['query_s']:.3f} s = {qps:.2f}/s, untraced"
          f" {base['ok']} queries in {base['query_s']:.3f} s = {base_qps:.2f}/s")
    probes = worker("probe", workload, seed)
    if probes["attempted"]:
        print(f"known defects: {probes['failed']} of {probes['attempted']}"
              " probe queries failed")
        for err in probes["errors"]:
            print("  probe:", err)
    for err in run["errors"] + base["errors"]:
        print("  failed:", err)
    raw["trace.queries_per_s"] = qps
    raw["trace.untraced_queries_per_s"] = base_qps
    raw["probe.failed"] = probes["failed"]
    raw["subgroups.express.cap_failures"] = (
        raw.get("subgroups.express.cap_failures", 0) + probes["cap_failures"])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    absent = [n for n in names if n not in raw]
    if absent:
        print("absent on this code (reported as 0):", " ".join(absent))
    idle = [n for n in names if raw.get(n) == 0 and n not in absent]
    if idle:
        print("not exercised by this workload:", " ".join(idle))
    metrics = {n: metric(raw.get(n, 0), u) for n, u in names.items()}
    # Both passes must be correct; the traced pass is what is reported.
    run["failed"] += base["failed"]
    run["attempted"] += base["attempted"]
    return run, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "malcev", "__init__.py")):
        print("error: src/malcev not found next to perfbench/; run from a"
              " checkout of the repository", file=sys.stderr)
        return 2
    rounds = max(1, round(args.seconds * ROUNDS_PER_S[args.workload]))
    try:
        # Every process of the run, inherited, on one CPU: a query and the
        # reference blocks that scale it then always ran on the same CPU.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not on Linux, or not allowed: the run is only less steady
    sys.path.insert(0, os.path.join(ROOT, "src"))
    plan = None
    if args.workload in workloads.PLANS:
        plan = workloads.PLANS[args.workload](args.seed, rounds)
    if args.trace:
        run, metrics = per_layer(args.workload, args.seed, rounds, plan)
    else:
        run, metrics = end_to_end(args.workload, args.seed, rounds, plan)
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
