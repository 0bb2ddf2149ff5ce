"""Deterministic netsim harness for the churn chaos corpus.

Where the wedge harness (harness.py) stresses *links* (loss +
corruption on a stable path), this one removes *topology*: relays crash
mid-exchange, crash again while still recovering, and whole nodes are
partitioned away. Three builders cover the committed scenarios:

``run_relay_crash``
    Diamond topology (``s—r1—v`` primary, ``s—r2—v`` warm backup); the
    primary relay crashes permanently mid-flight. Survival requires the
    endpoint's hop-death classification + path failover re-presenting
    the in-flight S1s through ``r2``.
``run_crash_restart``
    Single-path chain with a *strict* relay (``forward_unknown=False``)
    that crash/restarts from its state journal — twice, the second time
    while exchanges are still in pass-through recovery. Survival
    requires the journal: a state-lost strict relay drops everything.
``run_partition_heal``
    Diamond again; the primary relay is partitioned (links cut, no
    reroute) and later healed. Failover carries traffic meanwhile.

Everything is seeded and driven by the discrete-event simulator, so a
run is bit-identical across hosts. Every run attaches a shared
:class:`Observability` so the tests can assert the §13 event stream and
the no-double-spend invariant on the verifier's consumed chain indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.relay import RelayConfig, RelayEngine
from repro.crypto.hashes import get_hash
from repro.netsim import Network
from repro.netsim.faults import FaultSchedule
from repro.netsim.link import LinkConfig
from repro.obs import EventKind, Observability
from repro.transports.netsim import EndpointAdapter, RelayAdapter
from tests.regression.harness import send_until_reported

#: Per-hop latencies: the primary path must win the shortest-path tie.
PRIMARY_LATENCY_S = 0.003
BACKUP_LATENCY_S = 0.005


@dataclass
class ChurnRun:
    """Outcome of one churn scenario."""

    #: True when every submitted message reached a delivery report.
    done: bool
    #: Simulator events consumed (bounded by the corpus budget).
    events: int
    #: Simulated seconds consumed.
    sim_time: float
    #: Messages the verifier application actually received.
    delivered: int
    #: Signer endpoint's aggregated counters.
    signer_stats: object
    #: Verifier endpoint's aggregated counters.
    verifier_stats: object
    #: Distinct terminal failure reasons observed at the signer.
    failure_reasons: set
    #: The shared tracer/registry (event-stream and invariant asserts).
    obs: Observability
    #: The signer endpoint (path-manager inspection).
    endpoint: object
    #: Relay adapters by node name (journal / engine inspection).
    relays: dict = field(default_factory=dict)


def link_between(net: Network, a: str, b: str):
    """The (unique) physical link joining two named nodes."""
    for link in net.links:
        if {n.name for n in link.endpoints} == {a, b}:
            return link
    raise LookupError(f"no link between {a} and {b}")


def install_path(net: Network, src: str, dst: str, hops: tuple) -> None:
    """Pin the src↔dst route (both directions) along ``hops``.

    ALPHA's interlock needs route symmetry: the A-class replies must
    cross the same relays as the S-class packets they answer.
    """
    path = [src, *hops, dst]
    for left, right in zip(path, path[1:]):
        link = link_between(net, left, right)
        net.nodes[left].set_route(dst, link)
        net.nodes[right].set_route(src, link)


def route_installer(net: Network, src: str = "s"):
    """An ``on_path_switch`` callback that re-pins routes in netsim."""

    def switch(peer: str, old, new) -> None:
        install_path(net, src, peer, new.hops)

    return switch


def _endpoint_config(
    net: Network,
    mode: Mode,
    batch: int,
    failover: bool,
) -> EndpointConfig:
    return EndpointConfig(
        mode=mode,
        batch_size=batch,
        reliability=ReliabilityMode.RELIABLE,
        chain_length=2048,
        retransmit_timeout_s=0.15,
        max_retries=60,
        # Tight RTO ceiling + early escape: hop death is classified in
        # a few simulated seconds instead of minutes.
        rto_max_s=1.0,
        dead_peer_threshold=0,
        rekey_threshold=0,
        on_path_switch=route_installer(net) if failover else None,
    )


def _finish(net, signer, verifier, messages, obs, relays) -> ChurnRun:
    return ChurnRun(
        done=len(signer.reports) >= messages,
        events=net.simulator.events_processed,
        sim_time=net.simulator.now,
        delivered=len(verifier.received),
        signer_stats=signer.endpoint.resilience_stats(),
        verifier_stats=verifier.endpoint.resilience_stats(),
        failure_reasons={f.reason for _, f in signer.failures},
        obs=obs,
        endpoint=signer.endpoint,
        relays=relays,
    )


def _build_diamond(seed: int, obs: Observability) -> Network:
    net = Network(seed=seed, obs=obs)
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


def _provision_backup(relay: RelayAdapter, signer, verifier) -> None:
    """Warm the backup relay with the association's four anchors.

    The backup never saw the handshake (it was off-path), so this is
    the paper's static bootstrapping (Section 3.4): pre-install the
    anchors and let the chain verifiers walk forward to the live
    position through their resync window.
    """
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


def _diamond_scenario(
    seed: int,
    mode: Mode,
    batch: int,
    messages: int,
    failover: bool,
    event_budget: int,
    time_budget_s: float,
    plant_faults,
    handshake_warmup_s: float = 5.0,
) -> ChurnRun:
    """Shared driver for the two diamond (backup-path) scenarios."""
    obs = Observability()
    net = _build_diamond(seed, obs)
    config = _endpoint_config(net, mode, batch, failover)
    signer = EndpointAdapter(
        AlphaEndpoint("s", config, seed=f"{seed}-s", obs=obs), net.nodes["s"]
    )
    verifier = EndpointAdapter(
        AlphaEndpoint("v", config, seed=f"{seed}-v", obs=obs), net.nodes["v"]
    )
    relays = {
        name: RelayAdapter(
            net.nodes[name],
            engine=RelayEngine(get_hash("sha1"), obs=obs, name=name),
        )
        for name in ("r1", "r2")
    }
    if failover:
        signer.endpoint.paths.register("v", "via-r1", ("r1",))
        signer.endpoint.paths.register("v", "via-r2", ("r2",))
    signer.connect("v")
    net.simulator.run(until=handshake_warmup_s)
    assert signer.established("v"), (
        f"seed {seed} failed to establish within the warmup — not a "
        "valid corpus member"
    )
    _provision_backup(relays["r2"], signer, verifier)
    plant_faults(net, relays)
    send_until_reported(net, signer, b"churn", messages, event_budget, time_budget_s)
    return _finish(net, signer, verifier, messages, obs, relays)


def run_relay_crash(
    seed: int,
    mode: Mode = Mode.BASE,
    batch: int = 1,
    messages: int = 16,
    crash_offset_s: float = 0.05,
    failover: bool = True,
    event_budget: int = 100_000,
    time_budget_s: float = 900.0,
) -> ChurnRun:
    """Primary relay crashes permanently mid-exchange; no restart ever.

    ``failover=False`` runs the identical schedule with no backup path
    registered — the pre-failover baseline the corpus must prove fails.
    """

    def plant(net, relays):
        faults = FaultSchedule(net)
        # restart_at=None: explicit permanent crash (netsim.faults).
        faults.node_crash("r1", at=net.simulator.now + crash_offset_s)

    return _diamond_scenario(
        seed, mode, batch, messages, failover,
        event_budget, time_budget_s, plant,
    )


def run_partition_heal(
    seed: int,
    mode: Mode = Mode.BASE,
    batch: int = 1,
    messages: int = 16,
    partition_offset_s: float = 0.05,
    #: Longer than the ~5 s hop-death classification latency (escape
    #: hatch at rto_max=1.0), so recovery must come from failover — a
    #: heal-before-escape run would pass without exercising anything.
    partition_for_s: float = 8.0,
    failover: bool = True,
    event_budget: int = 100_000,
    time_budget_s: float = 900.0,
) -> ChurnRun:
    """Primary relay is partitioned away mid-flight, then healed.

    ``reroute=False`` keeps the stale routes pointing into the cut —
    recovery must come from the endpoint's failover, not the netsim
    conveniently re-solving the graph.
    """

    def plant(net, relays):
        faults = FaultSchedule(net)
        faults.partition(
            ["r1"],
            at=net.simulator.now + partition_offset_s,
            duration=partition_for_s,
            reroute=False,
        )

    return _diamond_scenario(
        seed, mode, batch, messages, failover,
        event_budget, time_budget_s, plant,
    )


def run_crash_restart(
    seed: int,
    mode: Mode = Mode.BASE,
    batch: int = 1,
    messages: int = 16,
    windows: tuple = ((0.007, 0.4), (0.6, 0.4)),
    journal: bool = True,
    messages_between: bool = True,
    event_budget: int = 100_000,
    time_budget_s: float = 900.0,
    handshake_warmup_s: float = 5.0,
) -> ChurnRun:
    """A strict single-path relay crash/restarts from its journal.

    ``windows`` is a tuple of ``(offset_s, down_for_s)`` crash windows
    relative to when the messages are submitted; the second window fires
    while exchanges from the first are still re-anchoring. The relay is
    strict (``forward_unknown=False``), so a state-lost restart
    (``journal=False``) black-holes every in-flight exchange — that
    variant is the pre-journal baseline the corpus proves fails.
    """
    obs = Observability()
    link = LinkConfig(latency_s=PRIMARY_LATENCY_S, jitter_s=0.0005)
    net = Network.chain(2, config=link, seed=seed, obs=obs)
    config = _endpoint_config(net, mode, batch, failover=False)
    signer = EndpointAdapter(
        AlphaEndpoint("s", config, seed=f"{seed}-s", obs=obs), net.nodes["s"]
    )
    verifier = EndpointAdapter(
        AlphaEndpoint("v", config, seed=f"{seed}-v", obs=obs), net.nodes["v"]
    )
    relay = RelayAdapter(
        net.nodes["r1"],
        engine=RelayEngine(
            get_hash("sha1"),
            RelayConfig(strict=True, forward_unknown=False),
            obs=obs,
            name="r1",
        ),
    )
    signer.connect("v")
    net.simulator.run(until=handshake_warmup_s)
    assert signer.established("v"), (
        f"seed {seed} failed to establish within the warmup — not a "
        "valid corpus member"
    )
    base = net.simulator.now
    for offset, down_for in windows:
        net.simulator.schedule_at(
            base + offset, relay.crash, journal
        )
        net.simulator.schedule_at(base + offset + down_for, relay.restart)
    send_until_reported(net, signer, b"churn", messages, event_budget, time_budget_s)
    return _finish(net, signer, verifier, messages, obs, {"r1": relay})


# -- invariant helpers ---------------------------------------------------------


def consumed_chain_indices(obs: Observability, node: str = "v") -> list:
    """Signature-chain indices the verifier consumed, in accept order.

    ``S1_VERIFY_OK`` is emitted exactly once per *fresh* chain element
    (retransmitted S1s repeat the cached A1 without re-verifying), so a
    repeated ``(assoc_id, chain_index)`` pair here means a single-use
    element was spent twice — the failover double-spend the §13 suite
    forbids.
    """
    spent = []
    for event in obs.tracer.events:
        if event.kind is EventKind.S1_VERIFY_OK and event.node == node:
            spent.append((event.assoc_id, event.info))
    return spent


def assert_no_double_spend(run: ChurnRun, node: str = "v") -> None:
    spent = consumed_chain_indices(run.obs, node)
    assert len(spent) == len(set(spent)), (
        f"chain element consumed twice at {node}: "
        f"{[s for s in spent if spent.count(s) > 1]}"
    )
    assert run.obs.tracer.dropped == 0, (
        "tracer overflowed — the double-spend check saw a partial story"
    )
