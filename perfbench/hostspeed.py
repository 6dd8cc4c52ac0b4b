"""The speed of the host, read from a fixed block of benchmark-owned work.

The benchmark runs on shared virtual machines whose speed drifts: on the
2-vCPU VM it was written on, the same loop took from 1.0 to 2.0 times its
best time, in phases of a second to several minutes, in CPU time as well as
in wall time.  Such a phase moves every query of a run alike, so run-to-run
spreads of raw times reached 0.4 of the median.

So every time the benchmark reports is scaled by REFERENCE_S / (the time of
`block()` measured next to it, in the same process).  It then reads as the
time on a host where one block takes REFERENCE_S.  The block is plain Python
of the kind malcev runs (big-integer arithmetic, tuples, dict lookups) and
calls no library code, so a change to malcev cannot move it; a change that
makes malcev slower shows in full.
"""

from __future__ import annotations

import statistics
import time

# The time of one block on the 2-vCPU x86 VM, Python 3.11, in its fast phase.
REFERENCE_S = 0.0003
# An in-process query is scaled by the median of the reference samples of the
# queries within this many places of it, which spans a few hundred ms of a run.
HALF_WINDOW = 5
_MASK = (1 << 128) - 1


def block() -> int:
    d: dict = {}
    x = 0x9E3779B97F4A7C15
    for i in range(600):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        k = (x >> 100, i & 7)
        d[k] = d.get(k, 0) + (x >> 64) * (i + 1)
    return len(d)


def sample() -> float:
    """The time of one block, in seconds."""
    t0 = time.perf_counter()
    block()
    return time.perf_counter() - t0


def samples(n: int) -> list[float]:
    return [sample() for _ in range(n)]


def factor(refs: list[float]) -> float:
    """The scale for times taken where the block took `refs`."""
    return REFERENCE_S / statistics.median(refs)


def scaled(latencies: list[float], refs: list[float],
           half_window: int) -> list[float]:
    """Each latency times the factor of the reference samples within
    half_window places of it; refs[i] was taken next to latencies[i]."""
    return [t * factor(refs[max(0, i - half_window):i + half_window + 1])
            for i, t in enumerate(latencies)]
