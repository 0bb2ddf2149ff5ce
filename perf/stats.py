"""Host calibration, the benchmark clock, and summary statistics.

Every timing is this thread's CPU time (:func:`cpu_ns`). The benchmark
is single-threaded and never blocks, so on a core of its own CPU time
is the wall time; on a shared host it leaves out the time the operating
system gave to other processes, which would otherwise swamp a change.

Timings are rescaled to a *reference host* on which one SHA-1 over
20 bytes takes 0.5 µs — the hash unit the paper prices relay work in
(Tables 5–6). Calibration loops run all through a measured slice, so
a host whose speed drifts during a run (a shared machine) is rescaled
slice by slice instead of once.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time

#: µs per SHA-1(20 B) on the reference host.
REF_SHA1_US = 0.5

#: The benchmark clock: CPU time of the calling thread, in ns.
cpu_ns = time.thread_time_ns
#: SHA-1(20 B) iterations of a stand-alone calibration.
CALIBRATION_ITERATIONS = 20_000


def sha1_us(iterations: int = CALIBRATION_ITERATIONS) -> float:
    """CPU µs per SHA-1(20 B) on this host now."""
    data = bytes(20)
    sha1 = hashlib.sha1
    start = cpu_ns()
    for _ in range(iterations):
        sha1(data).digest()
    return (cpu_ns() - start) / iterations / 1000.0


def reference_scale(host_sha1_us: float) -> float:
    """Factor turning a time measured on this host into reference time."""
    return REF_SHA1_US / host_sha1_us


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q`` % at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[rank - 1])


def beyond(values, threshold: float) -> int:
    """Samples strictly above ``threshold`` (the support of a percentile)."""
    return sum(1 for v in values if v > threshold)


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0
