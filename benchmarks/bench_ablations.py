"""Ablation benches for the design choices DESIGN.md calls out.

1. Role binding (S1/S2 tags) — with vs. without: the reformatting
   forgery succeeds exactly when the binding is removed.
2. Pre-acks — ALPHA's 4-packet reliable exchange vs. the naive
   6-packet double-signature alternative the paper derives it from
   (Section 3.2.2): packet count and acknowledgment latency in RTTs.
3. AMT vs. flat pre-acks for ALPHA-M — CPU (hash ops) and wire bytes as
   n grows, the trade-off of Section 3.3.3.
4. Resync window — verification cost under burst loss as the window
   grows (the CPU-bounding knob of our ChainVerifier).
"""


from benchmarks.chain_storage import CheckpointedHashChain
from benchmarks.conftest import format_table
from benchmarks.harness import build_channel, run_exchange
from repro.attacks.reformatting import demonstrate
from repro.core.acktree import AckTree
from repro.core.hashchain import ChainVerifier, HashChain
from repro.core.modes import Mode, ReliabilityMode
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import OpCounter, get_hash


def test_ablation_role_binding(emit, benchmark):
    sha1 = get_hash("sha1")
    outcome = demonstrate(sha1)
    table = format_table(
        ["chain construction", "forged S1 accepted"],
        [
            ["unbound  H_i = H(H_{i-1})      (ablation)", outcome["unbound"].forgery_possible],
            ["bound    H_i = H(tag_i|H_{i-1}) (ALPHA)", outcome["bound"].forgery_possible],
        ],
    )
    emit("ablation_role_binding", table)
    assert outcome["unbound"].forgery_possible
    assert not outcome["bound"].forgery_possible
    benchmark(demonstrate, sha1)


def test_ablation_preacks_vs_double_signature(emit, benchmark):
    # ALPHA reliable: S1 A1 S2 A2 = 4 packets, ack known 2 RTT after S1.
    # Naive alternative: a full 3-way signature for the data plus a full
    # 3-way signature for the acknowledgment = 6 packets, 3 RTT.
    channel = build_channel(reliability=ReliabilityMode.RELIABLE)
    packets = {"count": 0}
    original = channel.relay.handle

    def counting_handle(data, src, dst, now):
        packets["count"] += 1
        return original(data, src, dst, now)

    channel.relay.handle = counting_handle
    delivered = run_exchange(channel, [b"payload"])
    assert delivered == 1
    measured_packets = packets["count"]

    table = format_table(
        ["scheme", "packets/message", "ack latency (RTT)"],
        [
            ["ALPHA pre-(n)acks (Fig. 3)", measured_packets, 2],
            ["double 3-way signature (ablation)", 6, 3],
        ],
    )
    emit("ablation_preacks", table)
    assert measured_packets == 4

    benchmark(
        lambda: run_exchange(
            build_channel(reliability=ReliabilityMode.RELIABLE, chain_length=4),
            [b"x"],
        )
    )


def test_ablation_amt_vs_flat(emit, benchmark):
    sha1 = get_hash("sha1", OpCounter())
    rows = []
    for n in (1, 4, 16, 64, 256):
        # Flat: verifier computes 2n commitment hashes; wire carries 2n*h.
        flat_hashes = 2 * n
        flat_wire = 2 * n * 20
        # AMT: 4n-1 tree hashes once; wire carries one root; each opening
        # costs log2(2n)+1 verification hashes on the signer/relay.
        before = sha1.counter.snapshot()
        amt = AckTree(sha1, n, b"\x01" * 20, DRBG(n))
        build_hashes = sha1.counter.diff(before).hash_ops
        rows.append(
            [
                f"n={n}",
                flat_hashes,
                flat_wire,
                build_hashes,
                20,
                len(amt.open(0, True).path) + 1,
            ]
        )
    table = format_table(
        ["n", "flat hashes", "flat A1 bytes", "AMT build hashes",
         "AMT A1 bytes", "AMT verify hashes/opening"],
        rows,
    )
    emit(
        "ablation_amt_vs_flat",
        table + "\n\nThe paper's trade-off: the AMT keeps A1 constant-size "
        "and relay state at one hash, paying log2(n) per opened (n)ack "
        "and ~2x hashes at build time.",
    )
    # Wire advantage grows linearly while verify cost grows
    # logarithmically.
    assert rows[-1][2] / rows[-1][4] == 512  # 256*2*20 / 20
    assert rows[-1][5] <= 10

    benchmark(AckTree, sha1, 64, b"\x01" * 20, DRBG(1))


def test_ablation_resync_window(emit, benchmark):
    sha1 = get_hash("sha1", OpCounter())
    rng = DRBG(b"resync")
    rows = []
    for window in (4, 16, 64, 256):
        chain = HashChain(sha1, rng.random_bytes(20), 1024)
        verifier = ChainVerifier(sha1, chain.anchor, resync_window=window)
        # Burst loss: skip `burst` whole exchanges (2 elements each), so
        # each presented element sits 2*burst+1 positions past the last
        # seen one — just inside the window.
        burst = max(window // 2 - 1, 1)
        accepted = 0
        cost_before = sha1.counter.snapshot()
        presented = 0
        while chain.remaining_exchanges > burst + 1:
            for _ in range(burst):
                chain.next_exchange()  # lost in the burst
            element, _ = chain.next_exchange()
            presented += 1
            if verifier.verify(element):
                accepted += 1
        hashes = sha1.counter.diff(cost_before).labels.get("chain-verify", 0)
        rows.append(
            [window, burst, presented, accepted, f"{hashes / max(presented, 1):.1f}"]
        )
    table = format_table(
        ["resync window", "burst loss (exchanges)", "presented", "accepted",
         "verify hashes/packet"],
        rows,
    )
    emit(
        "ablation_resync_window",
        table + "\n\nLarger windows survive longer loss bursts at a "
        "linearly growing worst-case verification cost — the knob that "
        "bounds the CPU an attacker can burn with far-past elements.",
    )
    for row in rows:
        assert row[3] == row[2]  # within-window bursts always resync

    chain = HashChain(sha1, rng.random_bytes(20), 512)
    verifier = ChainVerifier(sha1, chain.anchor, resync_window=512)
    for _ in range(100):
        chain.next_exchange()
    element, _ = chain.next_exchange()

    benchmark(verifier.verify, element, False)


def test_ablation_chain_storage(emit, benchmark):
    """Full chain storage vs. checkpointing (sensor-node RAM budgets).

    A 2048-element SHA-1 chain stored whole is 40 KiB — five times the
    AquisGrain's total RAM. Checkpointing keeps O(n/k + k) elements at
    O(1) amortized extra hashes per exchange.
    """
    sha1 = get_hash("sha1", OpCounter())
    rng = DRBG(b"chain-storage")
    n = 2048
    rows = []
    seed = rng.random_bytes(20)

    HashChain(sha1, seed, n)
    rows.append(["full storage", (n + 1) * 20, 0, "baseline"])

    for k in (16, 64, 256):
        chain = CheckpointedHashChain(sha1, seed, n, checkpoint_interval=k)
        peak = chain.stored_elements
        before = sha1.counter.snapshot()
        while chain.remaining_exchanges:
            chain.next_exchange()
            peak = max(peak, chain.stored_elements)
        recompute = sha1.counter.diff(before).labels.get("chain-recompute", 0)
        rows.append(
            [
                f"checkpoint k={k}",
                peak * 20,
                f"{recompute / (n // 2):.2f}",
                f"{(n + 1) * 20 / (peak * 20):.1f}x smaller",
            ]
        )
    table = format_table(
        ["storage scheme", "peak bytes (20 B elems)", "extra hashes/exchange",
         "vs. full"],
        rows,
    )
    emit(
        "ablation_chain_storage",
        table + f"\n\n{n}-element signer chain. The CC2430-class node "
        "(8 KiB RAM) cannot hold the full chain; k=64 fits it in ~1.3 KiB "
        "at ~2 extra hashes per exchange.",
    )
    # Sanity: checkpointing cuts memory by >5x at k=64 with bounded
    # recompute.
    k64 = rows[2]
    assert (n + 1) * 20 / k64[1] > 5
    assert float(k64[2]) < 3.0

    chain = CheckpointedHashChain(sha1, seed, 512, checkpoint_interval=64)

    def consume():
        if chain.remaining_exchanges < 1:
            chain.__init__(sha1, seed, 512, checkpoint_interval=64)
        chain.next_exchange()

    benchmark(consume)


def test_ablation_pipelining(emit, benchmark):
    """Sequential vs. pipelined exchanges (Section 3.2.1's enablement).

    Base-mode ALPHA pays ~1.5 RTT per message when exchanges are
    strictly sequential; role binding makes overlapping them safe, and
    the speedup is close to the outstanding-exchange count until the
    queue drains faster than the RTT.
    """
    from repro.core.endpoint import AlphaEndpoint, EndpointConfig
    from repro.core.signer import ChannelConfig
    from repro.netsim import Network
    from repro.netsim.link import LinkConfig
    from repro.transports.netsim import EndpointAdapter, RelayAdapter

    def run(max_outstanding, seed=0, n=16):
        net = Network.chain(4, config=LinkConfig(latency_s=0.01), seed=seed)
        cfg = EndpointConfig(chain_length=512)
        s = EndpointAdapter(AlphaEndpoint("s", cfg, seed=f"{seed}s"), net.nodes["s"])
        v = EndpointAdapter(AlphaEndpoint("v", cfg, seed=f"{seed}v"), net.nodes["v"])
        for i in (1, 2, 3):
            RelayAdapter(net.nodes[f"r{i}"])
        s.connect("v")
        net.simulator.run(until=1.0)
        s.endpoint.set_channel_config("v", ChannelConfig(max_outstanding=max_outstanding))
        start = net.simulator.now
        for i in range(n):
            s.send("v", b"m%d" % i)
        while len(v.received) < n and net.simulator.now < start + 60:
            net.simulator.run(until=net.simulator.now + 0.02)
        assert len(v.received) == n
        return net.simulator.now - start

    rows = []
    baseline = None
    for k in (1, 2, 4, 8):
        elapsed = run(k, seed=5)
        if baseline is None:
            baseline = elapsed
        rows.append([k, f"{elapsed:.3f}", f"{baseline / elapsed:.1f}x"])
    table = format_table(
        ["outstanding exchanges", "time for 16 messages (s)", "speedup"],
        rows,
    )
    emit(
        "ablation_pipelining",
        table + "\n\nBase mode, 4-hop path, 10 ms/hop. The interlock RTT "
        "is hidden by overlapping exchanges; throughput saturates once "
        "the pipe is full.",
    )
    speedup_4 = float(rows[2][2][:-1])
    assert speedup_4 > 2.0

    benchmark.pedantic(run, args=(4,), kwargs={"seed": 31}, rounds=3, iterations=1)

def smoke():
    """Tier-1 smoke: role-binding demo plus one tiny reliable exchange."""
    outcome = demonstrate(get_hash("sha1"))
    assert outcome["unbound"].forgery_possible
    assert not outcome["bound"].forgery_possible
    channel = build_channel(
        mode=Mode.CUMULATIVE,
        reliability=ReliabilityMode.RELIABLE,
        batch_size=2,
        chain_length=64,
    )
    assert run_exchange(channel, [b"smoke"] * 2) == 2
