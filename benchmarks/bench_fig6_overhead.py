"""Figure 6 — transferred bytes per signed byte (signature overhead).

Regenerates the overhead-ratio curves and additionally *measures* the
on-wire ratio from a live simulated ALPHA-M transfer, so the analytic
curve is validated against what the byte counters actually record.
"""

import math


from benchmarks.conftest import format_table
from repro.core import analysis
from repro.core.adapter import EndpointAdapter
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode
from repro.netsim import Network, TraceCollector
from repro.netsim.link import LinkConfig
from repro.netsim.packet import HEADER_BYTES


def measured_wire_ratio(batch: int, chunk: int = 1004) -> float:
    """Payload-to-wire ratio of one simulated single-hop ALPHA-M run."""
    net = Network.chain(1, config=LinkConfig(latency_s=0.001), seed=batch)
    cfg = EndpointConfig(mode=Mode.MERKLE, batch_size=batch, chain_length=512)
    s = EndpointAdapter(AlphaEndpoint("s", cfg, seed=1), net.nodes["s"])
    v = EndpointAdapter(AlphaEndpoint("v", cfg, seed=2), net.nodes["v"])
    s.connect("v")
    net.simulator.run(until=1.0)
    baseline = TraceCollector.network_summary(net)["total_bytes"]
    for i in range(batch):
        s.send("v", bytes([i % 256]) * chunk)
    net.simulator.run(until=30.0)
    total = TraceCollector.network_summary(net)["total_bytes"] - baseline
    payload = sum(len(m) for _, m in v.received)
    assert payload == batch * chunk
    return total / payload


def test_figure6_regeneration(emit, benchmark):
    counts = analysis.logspace_counts(max_exponent=7, points_per_decade=3)
    series = analysis.figure6_series(counts=counts)

    rows = []
    for i, n in enumerate(counts):
        rows.append(
            [n]
            + [
                "inf" if math.isinf(series[size][i][1]) else f"{series[size][i][1]:.3f}"
                for size in analysis.FIGURE5_PACKET_SIZES
            ]
        )
    table = format_table(["n (S2 packets)", "1280 B", "512 B", "256 B", "128 B"], rows)

    measured_rows = []
    for batch in (4, 16, 64):
        analytic = analysis.overhead_ratio(batch, 1024 + HEADER_BYTES)
        wire = measured_wire_ratio(batch)
        measured_rows.append([f"n={batch}", f"{analytic:.3f}", f"{wire:.3f}"])
    measured_table = format_table(
        ["batch", "Eq.1 ratio (1048 B frames)", "simulated wire ratio"],
        measured_rows,
    )
    from repro.plotting import ascii_plot

    plot = ascii_plot(
        {
            f"{size}B": [(n, v) for n, v in series[size] if math.isfinite(v)]
            for size in analysis.FIGURE5_PACKET_SIZES
        },
        log_y=False,
        x_label="signed packets n",
        y_label="transferred bytes per signed byte",
    )
    emit(
        "figure6_overhead",
        plot + "\n\n" + table
        + "\n\nLive ALPHA-M transfer (single hop, includes S1/A1 "
        "control packets and frame headers, hence slightly above the "
        "analytic data-plane ratio):\n" + measured_table,
    )

    # Shape assertions mirroring the paper's Figure 6:
    # smaller packets -> higher overhead at every n.
    for i in range(len(counts)):
        curve = [series[size][i][1] for size in (1280, 512, 256, 128)]
        assert all(curve[j] <= curve[j + 1] for j in range(3))
    # The 128 B curve blows up to infinity within the range.
    assert any(math.isinf(v) for _, v in series[128])
    # Large packets stay cheap throughout (the paper's y range ~1..5
    # only gets exceeded by the small-packet curves).
    assert all(v < 2.0 for _, v in series[1280] if not math.isinf(v))

    # The simulated ratio must track the analytic one within the control
    # overhead margin.
    for batch in (16, 64):
        analytic = analysis.overhead_ratio(batch, 1024 + HEADER_BYTES)
        wire = measured_wire_ratio(batch)
        assert analytic < wire < analytic * 1.35

    benchmark(analysis.figure6_series)

def smoke():
    """Tier-1 smoke: one tiny wire-ratio measurement (overhead > 0)."""
    ratio = measured_wire_ratio(2, chunk=128)
    assert ratio > 1.0
    # Wire bytes per payload byte at batch=2, 128 B chunks: the
    # figure pinned in tier-1 (tests/benchmarks/test_bench_smoke.py).
    return {"wire_ratio_b2_c128": round(ratio, 6)}
