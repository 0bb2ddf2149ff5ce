"""Extension experiment X1 — end-to-end protocol comparison in simulation.

The paper evaluates ALPHA analytically; this bench complements it with a
live comparison the analytic tables imply: goodput and delivery latency
of the three ALPHA modes over a 4-hop verified path across loss rates,
against an unprotected stream (transport-only upper bound). The shape to
reproduce: ALPHA-C/-M amortize the S1/A1 handshake and approach the
unprotected goodput, base ALPHA pays one RTT per message, and loss
degrades unreliable delivery linearly while reliable mode holds at 100%.
"""


from benchmarks.conftest import format_table
from repro.core.adapter import EndpointAdapter, RelayAdapter
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.netsim import Network
from repro.netsim.link import LinkConfig
from repro.netsim.packet import Frame

HOPS = 4
N_MESSAGES = 40
MESSAGE_SIZE = 512
LOSS_RATES = (0.0, 0.05, 0.1)


def run_alpha(
    mode: Mode, reliability: ReliabilityMode, loss: float, seed=0,
    observe=False, out=None, max_outstanding=1, quantum=0.01,
):
    link = LinkConfig(latency_s=0.003, loss_rate=loss)
    net = Network.chain(HOPS, config=link, seed=seed)
    cfg = EndpointConfig(
        mode=mode,
        reliability=reliability,
        batch_size=8,
        max_outstanding=max_outstanding,
        chain_length=2048,
        retransmit_timeout_s=0.15,
        max_retries=40,
        observe=observe,
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
    # The measurement quantum bounds the resolution of ``elapsed``: a
    # run finishing in 40 ms measured on a 250 ms grid reads as 250 ms
    # and caps apparent goodput. 10 ms resolves the fastest pipelined
    # runs while the stall check (no progress and an idle sender for a
    # whole quantum) still only fires when the run is truly dead.
    last_count = -1
    while net.simulator.now < start + 200.0:
        net.simulator.run(until=net.simulator.now + quantum)
        if len(v.received) == N_MESSAGES:
            break
        if not s.endpoint.busy and len(v.received) == last_count:
            break
        last_count = len(v.received)
    elapsed = net.simulator.now - start
    # Measurement ends at delivery; let the in-flight A2s land so the
    # sender's ledger (exchanges_completed) reflects the finished run.
    # ``elapsed`` is already fixed above, so this settles bookkeeping
    # without touching the goodput numbers.
    net.simulator.run(until=net.simulator.now + 2.0)
    delivered = len(v.received)
    goodput = delivered * MESSAGE_SIZE * 8 / elapsed if elapsed > 0 else 0.0
    if out is not None:
        # Expose the adapters for callers that want the telemetry side
        # (the smoke's regression snapshot reads the sender's ledger).
        out["sender"], out["receiver"] = s, v
    return delivered, elapsed, goodput


def run_unprotected(loss: float, seed=0):
    """Transport-only baseline: raw frames, no authentication at all."""
    link = LinkConfig(latency_s=0.003, loss_rate=loss)
    net = Network.chain(HOPS, config=link, seed=seed)
    got = []
    net.nodes["v"].app_handler = lambda frame: got.append(frame)
    start = net.simulator.now
    for i in range(N_MESSAGES):
        net.nodes["s"].send(Frame("s", "v", bytes([i % 256]) * MESSAGE_SIZE))
    net.simulator.run()
    elapsed = max(net.simulator.now - start, 1e-9)
    return len(got), elapsed, len(got) * MESSAGE_SIZE * 8 / elapsed


def test_e2e_mode_comparison(emit, benchmark):
    rows = []
    results = {}
    for loss in LOSS_RATES:
        delivered, elapsed, goodput = run_unprotected(loss, seed=1)
        rows.append(
            ["unprotected", "-", f"{loss:.0%}", f"{delivered}/{N_MESSAGES}",
             f"{elapsed:.2f}", f"{goodput / 1e3:.0f}"]
        )
        for mode, rel, tag, depth in (
            (Mode.BASE, ReliabilityMode.UNRELIABLE, "ALPHA", 1),
            (Mode.CUMULATIVE, ReliabilityMode.UNRELIABLE, "ALPHA-C", 1),
            (Mode.MERKLE, ReliabilityMode.UNRELIABLE, "ALPHA-M", 1),
            (Mode.CUMULATIVE, ReliabilityMode.RELIABLE, "ALPHA-C rel", 1),
            (Mode.CUMULATIVE, ReliabilityMode.UNRELIABLE, "ALPHA-C pipe", 8),
        ):
            delivered, elapsed, goodput = run_alpha(
                mode, rel, loss, seed=1, max_outstanding=depth
            )
            results[(tag, loss)] = (delivered, elapsed, goodput)
            rows.append(
                [tag, rel.name.lower()[:5], f"{loss:.0%}",
                 f"{delivered}/{N_MESSAGES}", f"{elapsed:.2f}",
                 f"{goodput / 1e3:.0f}"]
            )
    table = format_table(
        ["scheme", "rel", "loss", "delivered", "time (s)", "goodput kbit/s"],
        rows,
    )
    emit(
        "x1_e2e_mode_comparison",
        table + "\n\n40 x 512 B messages, 4-hop path, 3 ms/hop, verified "
        "relays on every hop. Base ALPHA pays ~1.5 RTT per message; "
        "ALPHA-C/-M amortize the interlock across 8-message batches; "
        "reliable mode trades goodput for guaranteed delivery under loss; "
        "'pipe' additionally keeps 8 interlocked exchanges in flight "
        "(Section 3.2.1's role binding makes that safe).",
    )

    # Shape assertions:
    # 1. Batched modes beat base mode by a wide margin at zero loss.
    assert results[("ALPHA-C", 0.0)][2] > 3 * results[("ALPHA", 0.0)][2]
    assert results[("ALPHA-M", 0.0)][2] > 3 * results[("ALPHA", 0.0)][2]
    # 2. Everything delivers fully on a lossless path.
    for tag in ("ALPHA", "ALPHA-C", "ALPHA-M", "ALPHA-C rel"):
        assert results[(tag, 0.0)][0] == N_MESSAGES
    # 3. Reliable mode still delivers everything at 10% loss.
    assert results[("ALPHA-C rel", 0.1)][0] == N_MESSAGES
    # 4. Unreliable mode loses something at 10% loss (S2s die silently)
    #    but never wedges.
    assert results[("ALPHA-C", 0.1)][0] <= N_MESSAGES
    # 5. Pipelining hides the interlock RTT that batching alone cannot:
    #    the same mode with 8 exchanges in flight at least doubles the
    #    sequential goodput on a lossless path.
    assert results[("ALPHA-C pipe", 0.0)][2] > 2 * results[("ALPHA-C", 0.0)][2]

    # Benchmark: a full lossless ALPHA-C run (simulation throughput).
    benchmark.pedantic(
        run_alpha,
        args=(Mode.CUMULATIVE, ReliabilityMode.UNRELIABLE, 0.0),
        kwargs={"seed": 99},
        rounds=3,
        iterations=1,
    )

def smoke():
    """Tier-1 smoke: one lossless batch end to end, both stacks.

    Returns simulated-time metrics (deterministic for the fixed seed):
    goodput, elapsed, and the sender ledger's delivery-latency
    quantiles, which ``tests/benchmarks/test_bench_smoke.py`` pins
    exactly. The run is pipelined (8 exchanges in flight) and measured
    on the 10 ms quantum: the historical sequential smoke read exactly
    65536 bps because eight interlocks serialized into two 250 ms
    measurement ticks. The floor asserted here keeps the hot-path work
    at >= 3x that plateau.
    """
    import sys

    from benchmarks.conftest import scaled_down

    with scaled_down(sys.modules[__name__], N_MESSAGES=8):
        out = {}
        delivered, elapsed, goodput = run_alpha(
            Mode.BASE, ReliabilityMode.RELIABLE, loss=0.0, seed=9,
            observe=True, out=out, max_outstanding=8,
        )
        assert delivered == 8
        assert goodput >= 3 * 65536, (
            f"pipelined smoke goodput {goodput:.0f} bps below the 3x-"
            "baseline floor (196608 bps)"
        )
        got, _, _ = run_unprotected(loss=0.0, seed=9)
        assert got == 8
    link = out["sender"].endpoint.links.get("v")
    assert link is not None and link.exchanges_completed == 8
    return {
        "delivered": delivered,
        "elapsed_s": round(elapsed, 6),
        "goodput_bps": round(goodput, 3),
        "latency_p50_s": round(link.latency.quantile(0.5), 6),
        "latency_p99_s": round(link.latency.quantile(0.99), 6),
    }
