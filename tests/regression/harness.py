"""Deterministic netsim harness for the wedge-regression corpus.

Builds the exact topology the wedges were found on — a chain of
relays with symmetric mixed loss+corruption links — submits a fixed
message batch, and steps the discrete-event simulator until every
message reaches a terminal verdict (delivered or failed) or a budget
runs out. Everything is seeded, so a run is bit-identical across
hosts; no wall-clock time enters the loop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.relay import RelayEngine
from repro.crypto.hashes import get_hash
from repro.netsim import Network
from repro.netsim.link import LinkConfig
from repro.obs import Observability
from repro.transports.netsim import EndpointAdapter, RelayAdapter

#: The link the wedges were found on: fast, mildly jittered, with 12%
#: independent loss and 12% corruption per packet in each direction.
WEDGE_LINK = dict(latency_s=0.003, jitter_s=0.001,
                  loss_rate=0.12, corrupt_rate=0.12)


@dataclass
class WedgeRun:
    """Outcome of one harness run."""

    #: True when every submitted message reached a terminal verdict.
    done: bool
    #: Simulator events consumed (the step budget the corpus bounds).
    events: int
    #: Simulated seconds consumed.
    sim_time: float
    #: Signer endpoint's aggregated counters.
    signer_stats: object
    #: Verifier endpoint's aggregated counters.
    verifier_stats: object
    #: Worst run of consecutive max-RTO timeouts on the signer side.
    max_rto_streak_peak: int
    #: Distinct terminal failure reasons observed.
    failure_reasons: set[str]
    #: Distinct messages the verifier delivered to its application.
    delivered: int


def run_wedge(
    seed: int,
    mode: Mode,
    batch: int,
    hops: int,
    messages: int = 16,
    loss_rate: float = 0.12,
    corrupt_rate: float = 0.12,
    event_budget: int = 100_000,
    time_budget_s: float = 900.0,
    handshake_warmup_s: float = 5.0,
    obs: Observability | None = None,
) -> WedgeRun:
    """Run one seed-pinned mixed-loss scenario to terminal state.

    ``obs`` (optional) attaches a shared tracer/registry to every node,
    so the conformance suite can replay the same wedge and assert on
    the emitted event sequences; the corpus runs without it.
    """
    link = LinkConfig(
        latency_s=WEDGE_LINK["latency_s"],
        jitter_s=WEDGE_LINK["jitter_s"],
        loss_rate=loss_rate,
        corrupt_rate=corrupt_rate,
    )
    net = Network.chain(hops, config=link, seed=seed, obs=obs)
    config = EndpointConfig(
        mode=mode,
        batch_size=batch,
        reliability=ReliabilityMode.RELIABLE,
        chain_length=2048,
        retransmit_timeout_s=0.15,
        # The wedge regime: a generous retry budget and a high RTO
        # ceiling, exactly where pre-fix code could spin for minutes.
        max_retries=60,
        rto_max_s=5.0,
        dead_peer_threshold=0,
        rekey_threshold=0,
    )
    signer = EndpointAdapter(
        AlphaEndpoint("s", config, seed=f"{seed}-s", obs=obs), net.nodes["s"]
    )
    verifier = EndpointAdapter(
        AlphaEndpoint("v", config, seed=f"{seed}-v", obs=obs), net.nodes["v"]
    )
    if obs is not None:
        relays = [
            RelayAdapter(
                net.nodes[name],
                engine=RelayEngine(get_hash("sha1"), obs=obs, name=name),
            )
            for name in (f"r{i}" for i in range(1, hops))
        ]
    else:
        relays = [RelayAdapter(net.nodes[f"r{i}"]) for i in range(1, hops)]
    signer.connect("v")
    net.simulator.run(until=handshake_warmup_s)
    assert signer.established("v"), (
        f"seed {seed} failed to establish within the warmup — not a "
        "valid corpus member"
    )
    for i in range(messages):
        signer.send("v", b"wedge-%d" % i)
    while net.simulator._queue and len(signer.reports) < messages:
        if net.simulator.events_processed > event_budget:
            break
        if net.simulator.now > time_budget_s:
            break
        net.simulator.step()
    del relays  # kept alive for the run: adapters self-register
    return WedgeRun(
        done=len(signer.reports) >= messages,
        events=net.simulator.events_processed,
        sim_time=net.simulator.now,
        signer_stats=signer.endpoint.resilience_stats(),
        verifier_stats=verifier.endpoint.resilience_stats(),
        max_rto_streak_peak=signer.endpoint.max_rto_streak_peak(),
        failure_reasons={f.reason for _, f in signer.failures},
        delivered=len({message for _, message in verifier.received}),
    )
