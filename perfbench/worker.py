"""One benchmark process that answers queries and does nothing else.

    python3 worker.py setup <workload> <seed>
    python3 worker.py run <workload> <seed> <trace 0|1> < plan.json
    python3 worker.py cli <seed> <trace 0|1> <rounds>
    python3 worker.py probe <workload> <seed>

`setup` times a fresh process from before `import malcev` until every
presentation of the workload is built and one multiply per basis has run.
`run` does the same set-up, decodes the plan that `run.py` sends on stdin
(the steps of `workloads.py`, as plain data), then answers its queries in a
closed loop: one caller, the next query only after the previous answer.  It
prints the answers of each step unchecked, one line per step; `run.py`
checks them, so no library call but the queries runs here after set-up.
`cli` runs the cli_cold documents, each in a fresh interpreter.  `probe`
runs the known defects, untraced.  The last line of stdout is a JSON report
for `run.py`.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time

import clidocs
import hostspeed
import workloads
from cli_child import peak_rss_mb
from tracer import Tracer, merge

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Far above the slowest query that does not hang (about 0.3 s in process,
# about 0.6 s for a cold CLI document), so error_rate does not flip between
# runs; the probes of known hangs use the shorter PROBE_DEADLINE_S.
DEADLINE_S = 20.0
PROBE_DEADLINE_S = 2.0
# Reference blocks run before and again after each timed set-up.
SETUP_REFS = 20
CLI_TIMEOUT_S = 60.0


class QueryDeadline(Exception):
    pass


def _alarm(signum, frame):
    raise QueryDeadline


class Loop:
    """Counts and latencies of the queries answered so far, and beside each
    latency the time of a reference block (see hostspeed.py) taken next to
    the query, by which it is scaled in the report."""

    def __init__(self, half_window: int = hostspeed.HALF_WINDOW):
        self.half_window = half_window
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.ok = 0
        self.errors: list[str] = []

    def fail(self, label: str, reason: str, queries: int = 1) -> None:
        self.failed += queries
        if len(self.errors) < 10:
            self.errors.append(f"{label}: {reason}")

    def record(self, label: str, seconds: float, ref: float,
               reason: str | None) -> None:
        """One externally timed query, the reference time taken next to it,
        and the reason it failed, or None."""
        self.attempted += 1
        self.latencies.append(seconds)
        self.refs.append(ref)
        if reason:
            self.fail(label, reason)
        else:
            self.ok += 1

    def timed(self, call, deadline: float, tracer=None):
        """Answer one query under the deadline: (answer, seconds, error)."""
        if tracer:
            tracer.active = tracer.in_query = True
        signal.setitimer(signal.ITIMER_REAL, deadline)
        t0 = time.perf_counter()
        try:
            return call(), time.perf_counter() - t0, None
        except QueryDeadline:
            return None, time.perf_counter() - t0, \
                f"ran past the {deadline:g} s deadline"
        except Exception as exc:  # a library failure is a failed query
            return None, time.perf_counter() - t0, \
                f"{type(exc).__name__}: {exc}"[:200]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer:
                tracer.active = tracer.in_query = False
                tracer.stack.clear()

    def run_step(self, label: str, calls, tracer=None) -> list | None:
        """The answers of one step, or None if a query of it failed; then
        every query of the step that ran counts as failed."""
        results: list = []
        for call in calls:
            self.attempted += 1
            before = hostspeed.sample()
            answer, seconds, error = self.timed(lambda: call(results),
                                                DEADLINE_S, tracer)
            self.latencies.append(seconds)
            self.refs.append((before + hostspeed.sample()) / 2)
            if error:
                self.fail(label, error, len(results) + 1)
                return None
            results.append(answer)
        return results

    def report(self) -> dict:
        latencies = hostspeed.scaled(self.latencies, self.refs,
                                     self.half_window)
        return {"latencies": latencies, "attempted": self.attempted,
                "failed": self.failed, "ok": self.ok,
                "query_s": sum(latencies), "raw_query_s": sum(self.latencies),
                "errors": self.errors}


def _setup(workload: str, seed: int, trace: bool):
    """Set up in this fresh process; the time is scaled by the reference
    blocks run just before and just after it."""
    refs = hostspeed.samples(SETUP_REFS)
    t0 = time.perf_counter()
    import malcev  # noqa: F401
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
    state = workloads.SETUPS[workload](seed)
    setup_s = time.perf_counter() - t0
    if tracer:
        tracer.active = False  # on again only inside each query
    refs += hostspeed.samples(SETUP_REFS)
    return state, tracer, setup_s * hostspeed.factor(refs)


def run_in_process(workload: str, seed: int, trace: bool) -> dict:
    """Answer the plan on stdin.  The answers of each step go out unchecked,
    one JSON line each, as soon as the step is done, so they do not add to
    the memory of this process."""
    plan = json.load(sys.stdin)
    presentations, tracer, setup_s = _setup(workload, seed, trace)
    import malcev as M
    steps = []
    for kind, i, elements, numbers, words in plan:
        pres = presentations[i]
        decoded = [M.element(pres, c) for c in elements]
        steps.append((f"{kind}#{len(steps)}",
                      workloads.queries(M, pres, kind, decoded, numbers, words)))
    del plan
    signal.signal(signal.SIGALRM, _alarm)
    loop = Loop()
    for label, calls in steps:
        results = loop.run_step(label, calls, tracer)
        print(json.dumps(None if results is None
                         else workloads.encode(results)))
    out = loop.report()
    out.update(setup_s=[setup_s], rss_mb=peak_rss_mb(),
               trace=tracer.metrics() if tracer else None)
    return out


def run_probes(workload: str, seed: int) -> dict:
    """Known defects, run untraced in a process of their own (each CLI
    probe in its own child).  They are expected to fail until the defect is
    fixed, and are reported, not hidden."""
    loop = Loop()
    cap_failures = 0
    if workload == "finite_decisions":
        signal.signal(signal.SIGALRM, _alarm)
        for label, call, check in workloads.finite_probes():
            answer, seconds, error = loop.timed(call, PROBE_DEADLINE_S)
            loop.record(label, seconds, hostspeed.sample(),
                        error or check(answer))
    elif workload == "cli_cold":
        for doc in clidocs.cli_probes(seed):
            report, error, elapsed = _cli_child(doc, False)
            if report is not None:
                error = doc.check(report["code"], report["stdout"])
                if error:
                    error += "; " + report["stderr"].strip()
                    cap_failures += "longer than cap" in report["stderr"]
            loop.record(doc.name, elapsed, hostspeed.sample(), error)
    out = loop.report()
    out["cap_failures"] = cap_failures
    return out


# ---------------------------------------------------------------------------
# cli_cold: one fresh interpreter per document.

def _cli_expected(doc) -> tuple[int, str]:
    import malcev.cli
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(doc.text)
    try:
        code = malcev.cli.run(doc.argv, out, err)
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def _cli_child(doc, trace: bool) -> tuple[dict | None, str, float]:
    cmd = [sys.executable, os.path.join(HERE, "cli_child.py"),
           "1" if trace else "0", *doc.argv]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, input=doc.text, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"ran past the {CLI_TIMEOUT_S:g} s timeout", \
            time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    try:
        report = json.loads(proc.stderr.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, f"child exited {proc.returncode}: {proc.stderr[-200:]}", elapsed
    report["stdout"] = proc.stdout
    return report, "", elapsed


def run_cli(seed: int, trace: bool, rounds: int) -> dict:
    """The documents are answered in the children; this process only
    computes the expected answers, before any child starts, and checks.
    Each round runs a batch of documents of its own."""
    docs = [doc for batch in range(rounds)
            for doc in clidocs.cli_documents(seed, batch)]
    expected = [_cli_expected(doc) for doc in docs]
    verdicts = [doc.check(*exp) for doc, exp in zip(docs, expected)]

    # A child's reference time is already the median of its own blocks, run
    # in the same process on the same CPU, so it scales that child alone.
    loop = Loop(half_window=0)
    imports, rss, traces = [], [], []
    for i in range(len(docs)):
        report, error, elapsed = _cli_child(docs[i], trace)
        if report is None:
            loop.record(docs[i].name, elapsed, hostspeed.sample(), error)
            continue
        imports.append(report["import_s"]
                       * hostspeed.factor([report["ref_s"]]))
        rss.append(report["rss_mb"])
        if report["trace"]:
            traces.append(report["trace"])
        loop.record(docs[i].name, report["query_s"], report["ref_s"],
                    clidocs.judge(expected[i], verdicts[i],
                                  (report["code"], report["stdout"])))
    out = loop.report()
    out.update(setup_s=imports, rss_mb=max(rss, default=0.0),
               trace=merge(traces) if trace else None)
    return out


def main() -> None:
    sys.path.insert(0, SRC)
    mode = sys.argv[1]
    if mode == "setup":
        out = {"setup_s": [_setup(sys.argv[2], int(sys.argv[3]), False)[2]]}
    elif mode == "run":
        out = run_in_process(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
    elif mode == "cli":
        out = run_cli(int(sys.argv[2]), sys.argv[3] == "1", int(sys.argv[4]))
    else:
        out = run_probes(sys.argv[2], int(sys.argv[3]))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
