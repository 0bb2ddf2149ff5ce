"""Extension experiment X7 — exchange completion and latency under relay churn.

The paper assumes the relay set on a path is stable for an
association's lifetime; Section 13 of PROTOCOL.md drops that
assumption. This bench measures what the hop-death classifier + path
failover machinery actually buys: a diamond topology (``s—r1—v``
primary, ``s—r2—v`` warm backup) is driven through churn schedules
that repeatedly kill the then-active relay, and we record the exchange
completion rate and the mean per-message delivery latency against a
clean no-churn run — the shape to see: reliable delivery holds at 100%
through every churn level (the no-failover contrast demonstrably black-
holes), paid for in latency that scales with the churn rate, because
each kill costs one hop-death classification (~5 s at the corpus RTO
profile) before the in-flight S1s are re-presented through the backup.
"""

from benchmarks.conftest import format_table
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.relay import RelayEngine
from repro.crypto.hashes import get_hash
from repro.netsim import Network
from repro.netsim.faults import FaultSchedule
from repro.netsim.link import LinkConfig
from repro.transports.netsim import EndpointAdapter, RelayAdapter

N_MESSAGES = 24
MESSAGE_SIZE = 64
#: Submission window: messages are spread across it so every kill in a
#: churn schedule catches live traffic.
SPAN_S = 30.0
WARMUP_S = 5.0
TAIL_S = 120.0
EVENT_BUDGET = 400_000

PRIMARY_LATENCY_S = 0.003
BACKUP_LATENCY_S = 0.005

#: (label, churn period in s). Each period the then-active relay is
#: killed; it restarts half a second before the other relay's turn, so
#: every kill forces a fresh hop-death classification + failover. The
#: shortest period still exceeds the ~5 s classification latency —
#: faster churn would heal before the classifier speaks and measure
#: nothing.
CHURN_LEVELS = (("none", None), ("calm", 15.0), ("brisk", 8.0))


def _build_diamond(seed):
    net = Network(seed=seed)
    for name in ("s", "r1", "r2", "v"):
        net.add_node(name)
    primary = LinkConfig(latency_s=PRIMARY_LATENCY_S, jitter_s=0.0005)
    backup = LinkConfig(latency_s=BACKUP_LATENCY_S, jitter_s=0.0005)
    net.connect("s", "r1", primary)
    net.connect("r1", "v", primary)
    net.connect("s", "r2", backup)
    net.connect("r2", "v", backup)
    net.compute_routes()  # shortest path: via r1
    return net


def _link_between(net, a, b):
    for link in net.links:
        if {n.name for n in link.endpoints} == {a, b}:
            return link
    raise LookupError(f"no link between {a} and {b}")


def _install_path(net, src, dst, hops):
    # Route symmetry: A-class replies must cross the same relays as the
    # S-class packets they answer.
    path = [src, *hops, dst]
    for left, right in zip(path, path[1:]):
        link = _link_between(net, left, right)
        net.nodes[left].set_route(dst, link)
        net.nodes[right].set_route(src, link)


def _provision_backup(relay, signer, verifier):
    # The backup never saw the handshake (it was off-path): static
    # bootstrapping per the paper's Section 3.4 — install the four
    # anchors and let the chain verifiers walk forward to the live
    # position through their resync window.
    s_assoc = signer.endpoint.association("v")
    v_assoc = verifier.endpoint.association("s")
    relay.engine.provision(
        s_assoc.assoc_id,
        "s",
        "v",
        s_assoc.chains.signature.anchor,
        s_assoc.chains.acknowledgment.anchor,
        v_assoc.chains.signature.anchor,
        v_assoc.chains.acknowledgment.anchor,
    )


class _TimedReceived(list):
    """Drop-in for ``EndpointAdapter.received`` that stamps appends."""

    def __init__(self, simulator):
        super().__init__()
        self._simulator = simulator
        self.times = []

    def append(self, item):
        self.times.append(self._simulator.now)
        super().append(item)


def run_failover(period_s=None, crash_only=False, failover=True, seed=3):
    """One seeded diamond run; returns completion/latency/failover stats.

    ``period_s`` plants the alternating-kill churn schedule;
    ``crash_only`` is the acceptance scenario — one permanent primary-
    relay crash with the warm backup; ``failover=False`` runs the same
    schedule with no path registered (the pre-Section-13 contrast).
    """
    net = _build_diamond(seed)
    config = EndpointConfig(
        mode=Mode.BASE,
        batch_size=1,
        reliability=ReliabilityMode.RELIABLE,
        chain_length=2048,
        retransmit_timeout_s=0.15,
        max_retries=60,
        rto_max_s=1.0,
        dead_peer_threshold=0,
        rekey_threshold=0,
        adaptive=False,
        max_failovers=16,
        on_path_switch=(
            (lambda peer, old, new: _install_path(net, "s", peer, new.hops))
            if failover
            else None
        ),
    )
    signer = EndpointAdapter(
        AlphaEndpoint("s", config, seed=f"{seed}-s"), net.nodes["s"]
    )
    verifier = EndpointAdapter(
        AlphaEndpoint("v", config, seed=f"{seed}-v"), net.nodes["v"]
    )
    verifier.received = _TimedReceived(net.simulator)
    relays = {
        name: RelayAdapter(
            net.nodes[name], engine=RelayEngine(get_hash("sha1"), name=name)
        )
        for name in ("r1", "r2")
    }
    if failover:
        signer.endpoint.paths.register("v", "via-r1", ("r1",))
        signer.endpoint.paths.register("v", "via-r2", ("r2",))
    signer.connect("v")
    net.simulator.run(until=WARMUP_S)
    assert signer.established("v")
    _provision_backup(relays["r2"], signer, verifier)

    faults = FaultSchedule(net)
    if crash_only:
        # restart_at=None: explicit permanent crash (netsim.faults).
        faults.node_crash("r1", at=WARMUP_S + 0.05)
    elif period_s is not None:
        t, k = WARMUP_S + 0.05, 0
        while t < WARMUP_S + SPAN_S:
            target = "r1" if k % 2 == 0 else "r2"
            faults.node_crash(target, at=t, restart_at=t + period_s - 0.5)
            t += period_s
            k += 1

    send_times = {}

    def submit(i):
        payload = b"fo-%03d" % i + b"x" * (MESSAGE_SIZE - 6)
        send_times[payload] = net.simulator.now
        signer.send("v", payload)

    for i in range(N_MESSAGES):
        net.simulator.schedule_at(
            WARMUP_S + i * SPAN_S / N_MESSAGES, submit, i
        )
    deadline = WARMUP_S + SPAN_S + TAIL_S
    while net.simulator._queue and len(signer.reports) < N_MESSAGES:
        if net.simulator.events_processed > EVENT_BUDGET:
            break
        if net.simulator.now > deadline:
            break
        net.simulator.step()

    latencies = [
        now - send_times[message]
        for (_, message), now in zip(verifier.received, verifier.received.times)
    ]
    stats = signer.endpoint.resilience_stats()
    return {
        "completion": len(verifier.received) / N_MESSAGES,
        "mean_latency_s": (
            sum(latencies) / len(latencies) if latencies else float("inf")
        ),
        "failovers": stats.failovers,
        "represented": stats.s1_representations,
        "events": net.simulator.events_processed,
        "sim_time": net.simulator.now,
    }


def test_completion_and_latency_under_relay_churn(emit, benchmark):
    results = {}
    for label, period in CHURN_LEVELS:
        results[label] = run_failover(period_s=period, seed=1)
    results["crash"] = run_failover(crash_only=True, seed=1)
    results["crash no-fo"] = run_failover(crash_only=True, failover=False, seed=1)
    clean_latency = results["none"]["mean_latency_s"]
    rows = []
    for label, r in results.items():
        ratio = r["mean_latency_s"] / clean_latency
        rows.append(
            [
                label,
                f"{r['completion'] * 100:.0f}%",
                f"{r['mean_latency_s'] * 1e3:.1f}",
                "inf" if ratio == float("inf") else f"{ratio:.1f}",
                r["failovers"],
                r["represented"],
            ]
        )
    table = format_table(
        ["churn", "completion", "mean latency ms", "vs clean",
         "failovers", "re-presented S1s"],
        rows,
    )
    emit(
        "x7_completion_under_relay_churn",
        table + f"\n\n{N_MESSAGES} x {MESSAGE_SIZE} B messages spread over "
        f"{SPAN_S:.0f} s, reliable BASE mode, diamond topology (3 ms/hop "
        "primary, 5 ms/hop warm backup). Churn kills the then-active "
        "relay once per period; 'crash' is one permanent primary death. "
        "Failover holds completion at 100% through every schedule — the "
        "no-failover contrast black-holes — and the latency tax per kill "
        "is the ~5 s hop-death classification before the in-flight S1s "
        "are re-presented through the backup.",
    )

    # Shape assertions:
    # 1. Reliable delivery survives every churn schedule intact.
    for label in ("none", "calm", "brisk", "crash"):
        assert results[label]["completion"] == 1.0, label
    # 2. Without failover the same crash loses most of the traffic.
    assert results["crash no-fo"]["completion"] < 0.5
    # 3. Churn costs latency, monotonically with the churn rate.
    assert (
        results["brisk"]["mean_latency_s"]
        > results["calm"]["mean_latency_s"]
        > results["none"]["mean_latency_s"]
    )
    # 4. The machinery engaged: every churn level failed over and
    #    re-presented in-flight S1s.
    for label in ("calm", "brisk", "crash"):
        assert results[label]["failovers"] >= 1, label
        assert results[label]["represented"] >= 1, label

    # Benchmark: one brisk-churn run end to end.
    benchmark.pedantic(
        run_failover, kwargs={"period_s": 8.0, "seed": 99}, rounds=3,
        iterations=1,
    )


def smoke():
    """Tier-1 smoke: the acceptance scenario at toy scale — one
    permanent primary-relay crash with a warm backup must keep the
    exchange completion rate at or above 90%."""
    import sys

    from benchmarks.conftest import scaled_down

    with scaled_down(
        sys.modules[__name__], N_MESSAGES=8, SPAN_S=2.0, TAIL_S=60.0
    ):
        clean = run_failover(seed=5)
        crashed = run_failover(crash_only=True, seed=5)
    assert crashed["completion"] >= 0.9, (
        f"completion {crashed['completion']:.2f} under single-relay "
        "crash with a warm backup — below the 90% acceptance floor"
    )
    assert crashed["failovers"] >= 1
    return {
        "completion": round(crashed["completion"], 4),
        "latency_ratio_vs_clean": round(
            crashed["mean_latency_s"] / clean["mean_latency_s"], 3
        ),
        "failovers": crashed["failovers"],
    }
