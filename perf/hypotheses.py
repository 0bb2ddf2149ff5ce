"""Where a traced window's time goes, private hot spots included.

    python3 -m perf hypotheses [--workload base-64B-3hop] [--seed 1]

Runs the workload's fixed trace window once, traced, in this process, with
:data:`EXTRA_TARGETS` wrapped beside :data:`perf.tracing.TARGETS`, and
prints each span name's inclusive and self share of the window's CPU
time. The extra spans are private functions a profiler singled out;
they are used only here, never by ``run --trace``, so the per-layer
metrics stay on public calls. ``perf/results/hypotheses-base.txt`` is
this command's output at the defaults.
"""

from __future__ import annotations

from collections import Counter

from perf import bench, tracing
from perf.workloads import WORKLOADS, BenchClock

#: Private functions wrapped as extra spans (prefix ``x.``).
EXTRA_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.core.hashchain", "ChainVerifier", "_prune_derived", "x.prune_derived"),
    ("repro.core.relay", "_ChannelObserver", "prune", "x.channel_prune"),
    ("repro.core.relay", "_ChannelObserver", "_enforce_byte_cap", "x.enforce_byte_cap"),
    ("repro.core.relay", "_ChannelObserver", "buffered_bytes", "x.buffered_bytes"),
    ("repro.crypto.mac", None, "hmac_raw", "x.hmac_raw"),
)
#: Slices of the window (only their CPU time is used here).
SLICES = 20


def inclusive_ns(recorder: tracing.SpanRecorder) -> Counter:
    """Time per span name, counting only spans not nested in one of the same name."""
    totals: Counter = Counter()
    for i in range(len(recorder)):
        name_id = recorder.name_id[i]
        parent = recorder.parent[i]
        while parent >= 0 and recorder.name_id[parent] != name_id:
            parent = recorder.parent[parent]
        if parent < 0:
            totals[recorder.names[name_id]] += recorder.end[i] - recorder.start[i]
    return totals


def main(workload_name: str, seed: int) -> None:
    from repro.crypto.hashes import OpCounter

    workload = WORKLOADS[workload_name]
    clock = BenchClock()
    driver = bench._setup(workload, seed, clock, OpCounter(), observe=False)
    recorder = tracing.SpanRecorder(getattr(driver, "pump", driver))
    with tracing.installed(recorder, tracing.TARGETS + EXTRA_TARGETS):
        records = bench.measure(driver, clock, SLICES, messages=workload.trace_messages)
    total = sum(record["cpu_ns"] for record in records)
    own = recorder.self_ns_by_name()
    print(f"# Share of the traced CPU time of {workload_name} (seed {seed},"
          f" {workload.trace_messages}-message window), with private functions")
    print("# wrapped as extra spans (prefix x.) beside perf/tracing.py's TARGETS:")
    for module, owner, attribute, _ in EXTRA_TARGETS:
        print(f"#   {module}.{owner + '.' if owner else ''}{attribute}")
    print("# Tracing itself costs time, so small frequent calls read somewhat high.")
    print(f"{workload_name} window CPU s {total / 1e9} spans {len(recorder)}")
    for name, ns in inclusive_ns(recorder).most_common():
        print(f"  {name:32s} inclusive {100 * ns / total:6.1f}%"
              f"   self {100 * own[name] / total:6.1f}%")
