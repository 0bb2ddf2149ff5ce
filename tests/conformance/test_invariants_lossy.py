"""Conformance under adversity: invariants that survive a hostile path.

The exact-sequence suite pins down the loss-free story; here the same
protocol invariants are asserted over a *lossy, corrupting, duplicating*
multi-hop run, where retransmissions, relay repeats, and damaged frames
are all in play. Whatever the network does, the trace must still show:

- no S2 accepted by the verifier before that exchange's S1 MAC was
  verified and buffered;
- every disclosed MAC key exactly one chain element behind its S1
  pre-signature element;
- at most one delivery per (association, exchange, message index);
- at most one fresh relay admission (and one verified ``s1-ok``
  forward) per exchange — retransmit copies are recognised, never
  re-buffered.
"""

from __future__ import annotations

import re
from collections import defaultdict

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.relay import RelayEngine
from repro.crypto.hashes import get_hash
from repro.netsim import Network
from repro.netsim.link import LinkConfig
from repro.obs import EventKind as K
from repro.obs import Observability
from repro.transports.netsim import EndpointAdapter, RelayAdapter


def run_lossy(mode, seed, messages=8, batch=4, loss=0.12):
    """Drive a 3-hop lossy path to full delivery under a shared tracer."""
    obs = Observability()
    link = LinkConfig(
        latency_s=0.002,
        jitter_s=0.001,
        loss_rate=loss,
        duplicate_rate=0.03,
        corrupt_rate=0.02,
    )
    net = Network.chain(3, config=link, seed=seed, obs=obs)
    config = EndpointConfig(
        mode=mode,
        reliability=ReliabilityMode.RELIABLE,
        batch_size=batch,
        chain_length=1024,
        retransmit_timeout_s=0.2,
        max_retries=30,
    )
    s = EndpointAdapter(
        AlphaEndpoint("s", config, seed=f"{seed}-s", obs=obs), net.nodes["s"]
    )
    v = EndpointAdapter(
        AlphaEndpoint("v", config, seed=f"{seed}-v", obs=obs), net.nodes["v"]
    )
    relays = [
        RelayAdapter(
            net.nodes[name],
            engine=RelayEngine(get_hash("sha1"), obs=obs, name=name),
        )
        for name in ("r1", "r2")
    ]
    s.connect("v")
    net.simulator.run(until=10.0)
    assert s.established("v")
    payload = [b"lossy-%d" % i for i in range(messages)]
    for m in payload:
        s.send("v", m)
    net.simulator.run(until=120.0)
    assert sorted(m for _, m in v.received) == sorted(payload)
    assert obs.tracer.dropped == 0
    return obs, relays


@pytest.fixture(scope="module", params=[Mode.CUMULATIVE, Mode.MERKLE])
def lossy_trace(request):
    obs, _ = run_lossy(request.param, seed=23)
    return obs


def test_network_was_actually_hostile(lossy_trace):
    """The run must exercise the failure modes it claims to survive."""
    tracer = lossy_trace.tracer
    assert tracer.count(K.LINK_LOSS) > 0
    assert tracer.count(K.RETRANSMIT) > 0
    snap = lossy_trace.registry.snapshot()
    assert snap["link.frames_lost"] == tracer.count(K.LINK_LOSS)


def test_no_s2_accepted_before_s1_verified(lossy_trace):
    """Per exchange, the verifier's first S2 accept follows its S1 accept."""
    first_s1_ok: dict[tuple, int] = {}
    checked = 0
    for i, event in enumerate(lossy_trace.tracer.events):
        if event.node not in ("s", "v"):
            continue
        key = (event.node, event.assoc_id, event.seq)
        if event.kind is K.S1_VERIFY_OK:
            first_s1_ok.setdefault(key, i)
        elif event.kind is K.S2_VERIFY_OK:
            assert key in first_s1_ok and first_s1_ok[key] < i, event
            checked += 1
    assert checked > 0


def test_disclosed_key_always_one_behind(lossy_trace):
    oks = [
        e for e in lossy_trace.tracer.events if e.kind is K.S2_VERIFY_OK
    ]
    assert oks
    for event in oks:
        match = re.fullmatch(r"disclosed=(\d+) s1=(\d+)", event.info)
        assert match, event.info
        assert int(match.group(1)) == int(match.group(2)) - 1


def test_delivery_unique_per_message(lossy_trace):
    """Duplicated frames and retransmitted S2s never double-deliver."""
    seen = defaultdict(int)
    for event in lossy_trace.tracer.events:
        if event.kind is K.DELIVER:
            seen[(event.node, event.assoc_id, event.seq, event.msg_index)] += 1
    assert seen
    assert all(count == 1 for count in seen.values()), {
        key: count for key, count in seen.items() if count != 1
    }


def test_relay_buffers_each_exchange_once(lossy_trace):
    """Retransmitted S1 copies are matched against the buffered MAC, not
    admitted again: per relay and exchange, one admit, one ``s1-ok``."""
    tracer = lossy_trace.tracer
    assert tracer.count(K.RELAY_EVICT) == 0  # nothing forced out; see below
    admits = defaultdict(int)
    fresh_forwards = defaultdict(int)
    for event in tracer.events:
        key = (event.node, event.assoc_id, event.seq)
        if event.kind is K.RELAY_ADMIT:
            admits[key] += 1
        elif event.kind is K.RELAY_FORWARD and event.info == "s1-ok":
            fresh_forwards[key] += 1
    assert admits
    assert all(count == 1 for count in admits.values())
    assert admits == fresh_forwards


def test_verify_failures_never_deliver(lossy_trace):
    """Corrupted frames may fail MAC checks, but a failed verify must be
    terminal for that copy: no DELIVER shares an (exchange, msg) with a
    verify-fail unless a clean copy later verified OK."""
    failed = set()
    verified = set()
    for event in lossy_trace.tracer.events:
        key = (event.assoc_id, event.seq, event.msg_index)
        if event.kind is K.S2_VERIFY_FAIL:
            failed.add(key)
        elif event.kind is K.S2_VERIFY_OK:
            verified.add(key)
        elif event.kind is K.DELIVER:
            assert key in verified, event
