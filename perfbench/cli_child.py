"""Run one malcev CLI command in this fresh interpreter, as a user would.

Usage: python3 cli_child.py <trace 0|1> <command> [args...] < document

The CLI's stdout is passed through unchanged.  The last line on stderr is a
JSON report: exit code, the time to import malcev, the time spent in
`malcev.cli.run`, the median time of the reference block of hostspeed.py
run before the import and after the command (by which the parent scales both
times), the peak resident memory and, when traced, the per-layer metrics of
this process.
"""

import io
import json
import os
import resource
import statistics
import sys
import time

import hostspeed

# Reference blocks run before the import and again after the command.
REFS = 8


def peak_rss_mb() -> float:
    """Peak resident memory of this process alone, in MB.  ru_maxrss is not
    used where VmHWM can be read: Linux carries the parent's high-water mark
    across exec into it, so a child would report at least its parent's
    memory at the time it was started."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> None:
    refs = hostspeed.samples(REFS)
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    import malcev.cli
    import_s = time.perf_counter() - t0

    tracer = None
    if sys.argv[1] == "1":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = tracer.in_query = True
    out, err = io.StringIO(), io.StringIO()
    t1 = time.perf_counter()
    code = malcev.cli.run(sys.argv[2:], out, err)
    query_s = time.perf_counter() - t1
    if tracer is not None:
        tracer.active = False
    refs += hostspeed.samples(REFS)

    sys.stdout.write(out.getvalue())
    sys.stdout.flush()
    report = {
        "code": code,
        "import_s": import_s,
        "query_s": query_s,
        "ref_s": statistics.median(refs),
        "rss_mb": peak_rss_mb(),
        "stderr": err.getvalue()[-300:],
        "trace": tracer.metrics() if tracer else None,
    }
    sys.stderr.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
