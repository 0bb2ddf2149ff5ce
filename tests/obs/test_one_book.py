"""Count each event once: the registry and the link ledger read the
engines' always-on blocks.

The engines count into ``ResilienceStats`` blocks, and the relay into
its ``stats`` dict alone. A registry counter with such a twin samples it at
snapshot time, and a link ledger reads its signer counters from the
blocks of that peer's signers, so the three books cannot disagree.
Observed endpoints are driven through seeded loss and bit flips,
through a re-keying chain, through a verifying relay, and into a
black-holed failover; after each run every twin must equal its block,
and every decision the relay counts must be one trace event.
"""

from __future__ import annotations

import functools
import json
import random

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.exceptions import ProtocolError
from repro.core.modes import Mode, ReliabilityMode
from repro.core.relay import RelayEngine
from repro.crypto.hashes import get_hash
from repro.obs import EventKind, Observability
from repro.obs.export import to_jsonl, to_prometheus
from tests.obs.test_observing_is_wire_neutral import BitFlipNetwork

#: Registry name -> the signer ``stats`` field it counts, summed over
#: every signer of every endpoint, drained ones included.
SIGNER_TWINS = {
    "signer.retransmits": "retransmits",
    "signer.exchanges_done": "exchanges_completed",
    "signer.exchanges_failed": "exchanges_failed",
    "resilience.rto.probes": "escape_probes",
    "resilience.rto.probe_recoveries": "probe_recoveries",
    "resilience.failover.represented": "s1_representations",
}
#: Registry name -> the endpoint's own ``stats`` field.
ENDPOINT_TWINS = {
    "endpoint.parse_drops": "corrupt_drops",
    "endpoint.dead_peers": "dead_peers",
    "resilience.failover.switches": "failovers",
    "resilience.failover.exhausted": "failovers_exhausted",
}
#: Registry name -> a relay engine's count.
RELAY_TWINS = {
    "relay.admits": lambda r: r.stats.get("s1-ok", 0),
    "relay.evictions": lambda r: (
        r.stats.get("evicted.ttl", 0) + r.stats.get("evicted.capacity", 0)
    ),
    "relay.tombstone_forwards": lambda r: sum(
        r.stats.get(f"{kind}-evicted-unverified", 0)
        for kind in ("s1", "a1", "s2", "a2")
    ),
    "relay.parse_drops": lambda r: r.stats.get("malformed", 0),
    "relay.forwarded": lambda r: r.stats.get("forwarded", 0),
    "relay.dropped": lambda r: r.stats.get("dropped", 0),
    "relay.dropped.forged": lambda r: r.stats.get("dropped.forged", 0),
    "relay.dropped.tampered": lambda r: r.stats.get("dropped.tampered", 0),
}
#: Link-ledger counters derived from the signers' blocks.
LINK_FIELDS = (
    "packets_sent",
    "retransmits_timeout",
    "retransmits_nack",
    "exchanges_completed",
    "exchanges_failed",
    "rtt_samples",
)


def established(endpoint, peer):
    try:
        return endpoint.association(peer).established
    except ProtocolError:
        return False


def drive(
    mode, seed, loss_share, chain_length=2048, flips=False, relays=0,
    paths=0, messages=24,
):
    """A reliable observed pair over a seeded lossy (and optionally
    bit-flipping) link; ``paths`` registers backup paths and then
    black-holes the link once the handshake is done."""
    obs = Observability()
    loss = random.Random(f"loss-{seed}")
    black_hole = []
    net = BitFlipNetwork(
        drop_filter=lambda s, d, p: bool(black_hole) or loss.random() < loss_share,
        flips=random.Random(f"flip-{seed}") if flips else None,
    )
    config = EndpointConfig(
        mode=mode,
        reliability=ReliabilityMode.RELIABLE,
        batch_size=4,
        chain_length=chain_length,
        max_retries=40 if paths else 6,
        rto_max_s=2.0,
        max_failovers=1,
    )
    a, b = (
        net.add_endpoint(AlphaEndpoint(name, config, seed=f"{seed}-{name}", obs=obs))
        for name in ("a", "b")
    )
    engines = [
        RelayEngine(get_hash("sha1"), obs=obs, name=f"r{i}") for i in range(relays)
    ]
    if engines:
        net.add_relays("a", "b", engines)
    for i in range(paths):
        a.paths.register("b", f"via-r{i}", (f"r{i}",))
    net.connect("a", "b")
    for _ in range(40):
        if established(a, "b"):
            break
        net.advance(0.5)
    if paths:
        black_hole.append(True)
    for i in range(messages):
        if a.peer_down("b"):
            break
        net.send("a", "b", b"msg-%02d" % i)
    for _ in range(600):
        net.advance(0.25)
    return obs, (a, b), engines, net


DRIVES = {
    "loss-and-bit-flips": lambda: drive(Mode.MERKLE, 3, 0.2, flips=True),
    "probe-under-loss": lambda: drive(Mode.CUMULATIVE, 1, 0.3, flips=True),
    "rekeying-chain": lambda: drive(Mode.BASE, 2, 0.15, chain_length=16),
    "verifying-relay": lambda: drive(Mode.MERKLE, 3, 0.10, flips=True, relays=1),
    "black-holed-failover": lambda: drive(Mode.BASE, 0, 0.0, paths=2, messages=3),
}


@functools.cache
def run_drive(name):
    """One cached run per drive; the tests below only read it."""
    return DRIVES[name]()


@pytest.fixture(params=sorted(DRIVES))
def run(request):
    return request.param, run_drive(request.param)


def signer_total(endpoints, field):
    """``field`` over every signer block: the endpoint's aggregate less
    its own block."""
    return sum(
        getattr(ep.resilience_stats(), field) - getattr(ep.stats, field)
        for ep in endpoints
    )


def test_registry_reads_the_blocks(run):
    name, (obs, endpoints, engines, _) = run
    snap = obs.registry.snapshot()
    for counter, field in SIGNER_TWINS.items():
        assert snap[counter] == signer_total(endpoints, field), (name, counter)
    for counter, field in ENDPOINT_TWINS.items():
        expected = sum(getattr(ep.stats, field) for ep in endpoints)
        assert snap[counter] == expected, (name, counter)
    # The damper's two halves: the signer's bucket and the verifier's
    # duplicate-nack suppression.
    assert snap["resilience.nack.suppressed"] + snap["verifier.nacks_suppressed"] == (
        sum(ep.resilience_stats().nack_suppressed for ep in endpoints)
    ), name
    for counter, read in RELAY_TWINS.items():
        expected = sum(read(engine) for engine in engines)
        assert snap.get(counter, 0) == expected, (name, counter)
        if engines:
            assert obs.registry.counter(counter).value == expected


def test_link_ledger_reads_the_signer_blocks(run):
    name, (_, endpoints, _, _) = run
    for ep in endpoints:
        (link,) = ep.links  # one peer: its signers are all of them
        for field in LINK_FIELDS:
            assert getattr(link, field) == signer_total([ep], field), (
                name, ep.name, field,
            )
            assert link.snapshot()[field] == getattr(link, field)


def test_read_counters_export_as_counters(run):
    _, (obs, _, engines, _) = run
    registry = obs.registry
    names = {*SIGNER_TWINS, *ENDPOINT_TWINS, "verifier.nacks_suppressed"}
    if engines:
        names |= set(RELAY_TWINS)
    prometheus = to_prometheus(registry)
    records = {
        record["name"]: record
        for record in map(json.loads, to_jsonl(registry).splitlines())
        if "name" in record
    }
    for counter in names:
        prom = "alpha_" + counter.replace(".", "_")
        assert f"# TYPE {prom} counter" in prometheus
        assert f"{prom} {registry.counter(counter).value}\n" in prometheus
        assert records[counter] == {
            "record": "counter",
            "name": counter,
            "value": registry.snapshot()[counter],
        }


def test_drives_reach_the_paths_the_books_disagreed_on():
    """Each drive reaches what it is there for: both halves of the nack
    damper, a probe recovery that resends, several associations, a
    relay forwarding a handshake, a queue failed behind a dead peer."""
    def stats(name, side=0):
        return run_drive(name)[1][side].resilience_stats()

    obs, _, _, _ = run_drive("loss-and-bit-flips")
    assert obs.registry.snapshot()["resilience.nack.suppressed"] > 0
    assert stats("loss-and-bit-flips", 1).nack_suppressed > 0
    assert stats("probe-under-loss").probe_recoveries > 0
    assert run_drive("rekeying-chain")[1][0].links.link("b").associations > 2
    (relay,) = run_drive("verifying-relay")[2]
    assert relay.stats["hs1-observed"] == 1 and relay.stats["dropped"] > 0
    obs, _, _, _ = run_drive("black-holed-failover")
    assert stats("black-holed-failover").dead_peers == 1
    assert any(
        "dead-peer queued" in event.info
        for event in obs.tracer.events
        if event.kind is EventKind.EXCHANGE_FAILED
    )


def test_each_escape_consults_the_paths_once():
    """One rto-escape, one failover attempt: an escape that finds no
    backup is one ``failover-exhausted``, not one from the signer's
    hook and another from the forced dead-peer check."""
    obs, (a, _), _, _ = run_drive("black-holed-failover")
    escapes = [
        event
        for event in obs.tracer.events
        if event.kind is EventKind.EXCHANGE_FAILED and "rto-escape" in event.info
    ]
    stats = a.resilience_stats()
    assert stats.failovers == 1 and escapes
    assert stats.failovers_exhausted == len(escapes)
    assert obs.tracer.count(EventKind.FAILOVER_EXHAUSTED) == len(escapes)


def test_every_counted_relay_decision_is_traced():
    """The registry/trace identity holds with a handshake crossing the
    relay: each forward or drop it counts, handshakes included, is one
    ``relay-forward`` or ``relay-drop`` event."""
    obs, _, (relay,), _ = run_drive("verifying-relay")
    assert obs.tracer.dropped == 0 and relay.stats["hs2-observed"] == 1
    snap = obs.registry.snapshot()
    assert snap["relay.forwarded"] == obs.tracer.count(EventKind.RELAY_FORWARD)
    assert snap["relay.dropped"] == obs.tracer.count(EventKind.RELAY_DROP)


def test_no_exchange_starts_on_an_escaped_path():
    """The poll whose terminal rto-escape proved the path dead starts no
    queued exchange on it: seq 1's escape is the only one, and the
    dead-peer declaration fails the rest of the queue with it."""
    obs, _, _, net = run_drive("black-holed-failover")
    events = [
        event for event in obs.tracer.events
        if event.node == "a" and event.kind in (
            EventKind.S1_SEND, EventKind.EXCHANGE_FAILED,
            EventKind.FAILOVER_EXHAUSTED,
        )
    ]
    (escape,) = [
        i for i, event in enumerate(events)
        if event.kind is EventKind.EXCHANGE_FAILED and "rto-escape" in event.info
    ]
    assert events[escape].seq == 1
    assert not any(
        event.kind is EventKind.S1_SEND and event.seq == 2
        for event in events[escape:]
    )
    assert obs.tracer.count(EventKind.FAILOVER_EXHAUSTED) == 1
    submitted = {b"msg-%02d" % i for i in range(3)}
    failed = {
        message for _, failure in net.failures for message in failure.messages
    }
    assert failed == submitted - set(net.received_by("b"))
    assert failed
