"""Conformance: live mode switches mid-association (PROTOCOL.md §10).

The adaptive controller re-tunes a running channel, so the protocol
contract it leans on must actually hold on the wire: mode changes apply
at exchange boundaries only (every S1 carries its exchange's mode),
the verifier and relay accept a mid-association transition without
dropping exchanges buffered under the old configuration, and delivery
stays exactly-once through the switch — on a clean path and on a lossy,
corrupting, duplicating one.

The controller here is configured with ``loss_enter=0`` so any backlog
sends the channel straight from BASE to MERKLE: the hardest switch
(per-message interlock to batched tree exchange) happens in every run,
deterministically, without waiting for a loss estimate to climb.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.canonical import run_canonical
from repro.core.adaptive import AdaptiveConfig
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.relay import RelayEngine
from repro.crypto.hashes import get_hash
from repro.netsim import Network
from repro.netsim.link import LinkConfig
from repro.obs import EventKind as K
from repro.obs import Observability
from repro.transports.netsim import EndpointAdapter, RelayAdapter


def run_switching(loss, seed, messages=24):
    """Drive an adaptive 3-hop path through a BASE→MERKLE switch."""
    obs = Observability()
    link = LinkConfig(
        latency_s=0.002,
        jitter_s=0.001,
        loss_rate=loss,
        duplicate_rate=0.03 if loss else 0.0,
        corrupt_rate=0.02 if loss else 0.0,
    )
    net = Network.chain(3, config=link, seed=seed, obs=obs)
    config = EndpointConfig(
        mode=Mode.BASE,
        reliability=ReliabilityMode.RELIABLE,
        chain_length=1024,
        retransmit_timeout_s=0.2,
        max_retries=30,
        adaptive=AdaptiveConfig(
            decision_interval_s=0.05,
            warmup_intervals=1,
            switch_cooldown_s=0.0,
            loss_enter=0.0,  # any backlog goes straight to Merkle mode
            loss_exit=0.0,
            max_outstanding_cap=1,
        ),
    )
    s = EndpointAdapter(
        AlphaEndpoint("s", config, seed=f"{seed}-s", obs=obs), net.nodes["s"]
    )
    v = EndpointAdapter(
        AlphaEndpoint("v", config, seed=f"{seed}-v", obs=obs), net.nodes["v"]
    )
    for name in ("r1", "r2"):
        RelayAdapter(
            net.nodes[name],
            engine=RelayEngine(get_hash("sha1"), obs=obs, name=name),
        )
    s.connect("v")
    net.simulator.run(until=10.0)
    assert s.established("v")
    payload = [b"adapt-%d" % i for i in range(messages)]
    # One message first: the association's opening exchange runs (and may
    # still be in flight) under BASE when the burst lands behind it.
    s.send("v", payload[0])
    net.simulator.run(until=10.01)
    for m in payload[1:]:
        s.send("v", m)
    net.simulator.run(until=120.0)
    assert sorted(m for _, m in v.received) == sorted(payload)
    assert obs.tracer.dropped == 0
    return obs, s, v


@pytest.fixture(scope="module", params=["clean", "lossy"])
def switch_trace(request):
    loss = 0.0 if request.param == "clean" else 0.12
    obs, s, v = run_switching(loss, seed=31)
    return request.param, obs, s


def test_switch_actually_happened(switch_trace):
    """The run must contain the transition it claims to exercise."""
    _, obs, s = switch_trace
    switches = [e for e in obs.tracer.events if e.kind is K.ADAPT_SWITCH]
    assert switches
    assert any(e.info.startswith("mode=base->merkle") for e in switches)
    controller = s.endpoint.association("v").controller
    assert controller is not None
    assert any(d.kind == "switch" for d in controller.decisions)


def test_exchanges_of_both_modes_delivered(switch_trace):
    """Exchanges begun before and after the switch both complete: the
    verifier kept the old-mode exchange through the transition."""
    _, obs, _ = switch_trace
    mode_by_seq = {}
    delivered_seqs = set()
    for event in obs.tracer.events:
        if event.node == "s" and event.kind is K.S1_SEND:
            mode_by_seq.setdefault(event.seq, event.info.split()[0])
        elif event.node == "v" and event.kind is K.DELIVER:
            delivered_seqs.add(event.seq)
    modes_delivered = {mode_by_seq[seq] for seq in delivered_seqs}
    assert "mode=base" in modes_delivered
    assert "mode=merkle" in modes_delivered


def test_delivery_exactly_once_through_switch(switch_trace):
    """No message is dropped or double-delivered across the transition."""
    _, obs, _ = switch_trace
    seen = defaultdict(int)
    for event in obs.tracer.events:
        if event.kind is K.DELIVER:
            seen[(event.node, event.assoc_id, event.seq, event.msg_index)] += 1
    assert seen
    assert all(count == 1 for count in seen.values()), {
        key: count for key, count in seen.items() if count != 1
    }


def test_lossy_run_was_actually_lossy(switch_trace):
    """The lossy parametrization exercises loss, not just the switch."""
    param, obs, _ = switch_trace
    if param != "lossy":
        pytest.skip("clean-link parametrization")
    assert obs.tracer.count(K.LINK_LOSS) > 0
    assert obs.tracer.count(K.RETRANSMIT) > 0


def test_relay_admits_each_exchange_once_through_switch(switch_trace):
    """Relay state is per-exchange: the mode change never re-admits or
    confuses a buffered exchange."""
    _, obs, _ = switch_trace
    admits = defaultdict(int)
    for event in obs.tracer.events:
        if event.kind is K.RELAY_ADMIT:
            admits[(event.node, event.assoc_id, event.seq)] += 1
    assert admits
    assert all(count == 1 for count in admits.values())


def test_canonical_adaptive_decision_arc():
    """The scripted replay pins the full §10 controller arc, including
    the loss-driven Merkle switch fed by genuine S1 retransmissions."""
    obs = run_canonical("adaptive")
    switches = [e for e in obs.tracer.events if e.kind is K.ADAPT_SWITCH]
    assert [e.info.split()[0] for e in switches] == [
        "mode=base->cumulative",
        "mode=cumulative->merkle",
        "mode=merkle->base",
    ]
    assert obs.tracer.count(K.RETRANSMIT) == 2
    snap = obs.registry.snapshot()
    assert snap["adaptive.switches"] == 3
    assert snap["adaptive.mode"] == int(Mode.BASE)
