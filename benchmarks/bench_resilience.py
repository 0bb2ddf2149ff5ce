"""Extension experiment X2 — goodput under Gilbert–Elliott burst loss.

The paper's loss discussion (Section 3.3) is analytic and assumes
independent drops; real mesh radios lose frames in bursts. This bench
sweeps a two-state Gilbert–Elliott channel from clean to hostile on a
3-hop verified path and measures delivered fraction and goodput for the
three ALPHA modes in reliable delivery, plus the same channel with the
adaptive RTO estimator disabled — the shape to see: batching (C/M)
amortizes the interlock as in X1, reliable delivery holds at 100%
through moderate bursts, and the RFC 6298 estimator beats a fixed
retransmission timer precisely when bursts make the fixed timer either
too eager (spurious retransmits) or too lazy (idle gaps).
"""


from benchmarks.conftest import format_table
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.netsim import Network
from repro.netsim.link import LinkConfig
from repro.transports.netsim import EndpointAdapter, RelayAdapter

HOPS = 3
N_MESSAGES = 24
MESSAGE_SIZE = 512

#: Burst severity sweep: (label, LinkConfig). Stationary loss share is
#: p_bad / (p_bad + p_good) * loss_bad.
CHANNELS = (
    ("clean", LinkConfig(latency_s=0.003)),
    (
        "light",  # ~7% average loss in short bursts
        LinkConfig(
            latency_s=0.003, ge_p_bad=0.05, ge_p_good=0.5, ge_loss_bad=0.8
        ),
    ),
    (
        "heavy",  # ~20% average loss in long bursts
        LinkConfig(
            latency_s=0.003, ge_p_bad=0.1, ge_p_good=0.3, ge_loss_bad=0.8
        ),
    ),
)


def run_alpha(mode, link, adaptive=True, seed=0):
    net = Network.chain(HOPS, config=link, seed=seed)
    cfg = EndpointConfig(
        mode=mode,
        reliability=ReliabilityMode.RELIABLE,
        batch_size=8,
        chain_length=2048,
        retransmit_timeout_s=0.15,
        max_retries=100,
        adaptive_rto=adaptive,
        rto_max_s=5.0,
        dead_peer_threshold=0,  # measure the channel, not the teardown
    )
    s = EndpointAdapter(AlphaEndpoint("s", cfg, seed=f"{seed}s"), net.nodes["s"])
    v = EndpointAdapter(AlphaEndpoint("v", cfg, seed=f"{seed}v"), net.nodes["v"])
    for i in range(1, HOPS):
        RelayAdapter(net.nodes[f"r{i}"])
    s.connect("v")
    net.simulator.run(until=20.0)
    assert s.established("v")
    start = net.simulator.now
    for i in range(N_MESSAGES):
        s.send("v", bytes([i % 256]) * MESSAGE_SIZE)
    last_count = -1
    while net.simulator.now < start + 600.0:
        net.simulator.run(until=net.simulator.now + 0.25)
        if len(v.received) == N_MESSAGES:
            break
        if not s.endpoint.busy and len(v.received) == last_count:
            break
        last_count = len(v.received)
    elapsed = max(net.simulator.now - start, 1e-9)
    delivered = len(v.received)
    goodput = delivered * MESSAGE_SIZE * 8 / elapsed
    stats = s.endpoint.resilience_stats()
    return delivered, elapsed, goodput, stats


def test_goodput_under_burst_loss(emit, benchmark):
    rows = []
    results = {}
    for channel_name, link in CHANNELS:
        for mode, tag in (
            (Mode.BASE, "ALPHA"),
            (Mode.CUMULATIVE, "ALPHA-C"),
            (Mode.MERKLE, "ALPHA-M"),
        ):
            delivered, elapsed, goodput, stats = run_alpha(mode, link, seed=1)
            results[(tag, channel_name)] = (delivered, goodput, stats)
            rows.append(
                [tag, "rfc6298", channel_name, f"{delivered}/{N_MESSAGES}",
                 f"{elapsed:.2f}", f"{goodput / 1e3:.1f}",
                 stats.retransmits, stats.backoff_events]
            )
        # Fixed-timer contrast on the batching mode only.
        delivered, elapsed, goodput, stats = run_alpha(
            Mode.CUMULATIVE, link, adaptive=False, seed=1
        )
        results[("ALPHA-C fixed", channel_name)] = (delivered, goodput, stats)
        rows.append(
            ["ALPHA-C", "fixed", channel_name, f"{delivered}/{N_MESSAGES}",
             f"{elapsed:.2f}", f"{goodput / 1e3:.1f}",
             stats.retransmits, stats.backoff_events]
        )
    table = format_table(
        ["scheme", "rto", "channel", "delivered", "time (s)",
         "goodput kbit/s", "rexmits", "backoffs"],
        rows,
    )
    emit(
        "x2_goodput_vs_burst_loss",
        table + "\n\n24 x 512 B messages, reliable delivery, 3-hop verified "
        "path, 3 ms/hop, Gilbert-Elliott burst loss (light ~7%, heavy "
        "~20% average). Batched modes amortize the S1/A1 interlock; the "
        "RFC 6298 estimator spends fewer spurious retransmissions than "
        "a 150 ms fixed timer once RTT inflates under retransmission "
        "load, at comparable or better goodput.",
    )

    # Shape assertions:
    # 1. Reliable delivery holds everywhere, including heavy bursts.
    for (tag, channel_name), (delivered, _, _) in results.items():
        assert delivered == N_MESSAGES, (tag, channel_name)
    # 2. Burst loss costs goodput monotonically for every mode.
    for tag in ("ALPHA", "ALPHA-C", "ALPHA-M"):
        assert results[(tag, "clean")][1] > results[(tag, "heavy")][1]
    # 3. Batching still wins under bursts.
    assert results[("ALPHA-C", "heavy")][1] > results[("ALPHA", "heavy")][1]
    # 4. The adaptive estimator engaged under loss (samples + backoff).
    assert results[("ALPHA-C", "heavy")][2].retransmits > 0
    assert results[("ALPHA-C", "heavy")][2].backoff_events > 0
    assert results[("ALPHA-C", "heavy")][2].rtt_samples > 0

    # Benchmark: one heavy-burst reliable ALPHA-C run end to end.
    benchmark.pedantic(
        run_alpha,
        args=(Mode.CUMULATIVE, CHANNELS[2][1]),
        kwargs={"seed": 99},
        rounds=3,
        iterations=1,
    )

def smoke():
    """Tier-1 smoke: one small reliable batch over a clean channel."""
    import sys

    from benchmarks.conftest import scaled_down

    with scaled_down(sys.modules[__name__], N_MESSAGES=8):
        delivered, elapsed, goodput, _ = run_alpha(
            Mode.CUMULATIVE, LinkConfig(latency_s=0.003), seed=5
        )
    assert delivered == 8 and goodput > 0
    return {
        "delivered": delivered,
        "elapsed_s": round(elapsed, 6),
        "goodput_bps": round(goodput, 3),
    }
