"""Regression: relay eviction/tombstone accounting reconciles exactly.

Under byte pressure the relay evicts buffered exchanges oldest-first and
degrades their late packets to unverified (tombstone) forwarding. Every
one of those transitions is counted three ways — the relay's ``stats``
book, the metrics registry, and trace events — and this suite pins the books
together: admissions = live + evicted, every tombstone forward is
visible in all three ledgers, and per-reason decision counts agree with
the per-event trace. Any future drift between the ledgers (e.g. a new
eviction path that forgets one counter) fails here.
"""

from __future__ import annotations

from repro.canonical import CanonicalChannel
from repro.core.relay import RelayConfig
from repro.crypto.drbg import DRBG
from repro.obs import EventKind as K
from repro.obs import Observability

ASSOC = 77


def tombstone_forwards(relay) -> int:
    """Packets of evicted exchanges the relay forwarded unverified."""
    return sum(
        relay.stats.get(f"{kind}-evicted-unverified", 0)
        for kind in ("s1", "a1", "s2", "a2")
    )


class ObservedHarness(CanonicalChannel):
    """Signer/verifier pair with an instrumented relay in between."""

    def __init__(self, relay_config: RelayConfig):
        super().__init__(
            DRBG(b"tombstone-accounting"),
            relay_config=relay_config,
            obs=Observability(),
            assoc_id=ASSOC,
        )

    def start_exchange(self, message: bytes, now: float):
        """S1 through the relay, A1 around it; returns the S2s in hand."""
        self.signer.submit(message)
        s2_raws, _ = self.start(now, a1_via_relays=False)
        return s2_raws

    @property
    def channel(self):
        return self.relay._associations[ASSOC].forward_channel

    def ledgers(self):
        """The three counter ledgers, aligned for comparison."""
        stats = self.relay.stats
        snap = self.obs.registry.snapshot()
        tracer = self.obs.tracer
        return {
            "admits": (
                stats.get("s1-ok", 0),
                snap.get("relay.admits", 0),
                tracer.count(K.RELAY_ADMIT),
            ),
            "evictions": (
                stats.get("evicted.ttl", 0) + stats.get("evicted.capacity", 0),
                snap.get("relay.evictions", 0),
                tracer.count(K.RELAY_EVICT),
            ),
            "tombstones": (
                tombstone_forwards(self.relay),
                snap.get("relay.tombstone_forwards", 0),
                tracer.count(K.RELAY_TOMBSTONE),
            ),
        }


def assert_reconciled(harness: ObservedHarness):
    """Every ledger agrees, and admissions balance against eviction."""
    ledgers = harness.ledgers()
    for name, (stats_count, metric_count, event_count) in ledgers.items():
        assert stats_count == metric_count == event_count, (name, ledgers)
    admits = ledgers["admits"][0]
    evictions = ledgers["evictions"][0]
    assert admits == len(harness.channel.exchanges) + evictions


def test_byte_pressure_eviction_books_balance():
    # Base-mode S1 buffers one 20-byte pre-signature; a 50-byte ceiling
    # holds two exchanges, so six starts force four evictions.
    harness = ObservedHarness(
        RelayConfig(
            exchange_ttl_s=None, max_buffered_bytes=50, require_a1_for_s2=False
        )
    )
    held_s2s = [harness.start_exchange(b"m%d" % i, now=float(i)) for i in range(6)]
    assert sorted(harness.channel.exchanges) == [5, 6]
    assert harness.relay.stats.get("evicted.capacity", 0) == 4
    assert harness.relay.stats.get("evicted.ttl", 0) == 0
    assert_reconciled(harness)

    # Late S2s of the four evicted exchanges degrade to tombstone
    # forwarding; the two live ones verify normally. Nothing is dropped.
    for s2_raws in held_s2s:
        for raw in s2_raws:
            assert harness.relay.handle(raw, "s", "v", 10.0).forward
    stats = harness.relay.stats
    assert stats["s1-ok"] == 6
    assert stats["s2-evicted-unverified"] == 4
    assert stats["s2-ok"] == 2
    assert stats.get("dropped", 0) == 0
    assert tombstone_forwards(harness.relay) == 4
    assert_reconciled(harness)

    # Trace detail: every eviction names byte pressure, every tombstone
    # names the packet class that crossed on the dead exchange.
    evict_reasons = [
        e.info for e in harness.obs.tracer.events if e.kind is K.RELAY_EVICT
    ]
    assert evict_reasons == ["byte-cap"] * 4
    tombstone_reasons = [
        e.info for e in harness.obs.tracer.events if e.kind is K.RELAY_TOMBSTONE
    ]
    assert tombstone_reasons == ["s2-evicted-unverified"] * 4
    # Tombstoned seqs are exactly the evicted ones, each forwarded once.
    tombstoned = sorted(
        e.seq for e in harness.obs.tracer.events if e.kind is K.RELAY_TOMBSTONE
    )
    assert tombstoned == [1, 2, 3, 4]


def test_repeated_tombstone_forwards_count_per_event():
    """Counting is per forwarded packet, not per unique exchange: a
    retransmitted S2 on a dead exchange books two tombstone forwards,
    and the ledgers still reconcile."""
    harness = ObservedHarness(
        RelayConfig(
            exchange_ttl_s=None, max_buffered_bytes=50, require_a1_for_s2=False
        )
    )
    first_s2s = harness.start_exchange(b"first", now=0.0)
    for i in range(3):  # push the first exchange out of the buffer
        harness.start_exchange(b"fill-%d" % i, now=1.0 + i)
    assert 1 not in harness.channel.exchanges

    for _ in range(2):  # original + retransmission
        assert harness.relay.handle(first_s2s[0], "s", "v", 5.0).forward
    assert tombstone_forwards(harness.relay) == 2
    assert harness.relay.stats["s2-evicted-unverified"] == 2
    assert_reconciled(harness)


def test_ttl_eviction_shares_the_same_ledgers():
    harness = ObservedHarness(
        RelayConfig(exchange_ttl_s=30.0, max_buffered_bytes=None)
    )
    stale_s2s = harness.start_exchange(b"stale", now=0.0)
    harness.start_exchange(b"fresh", now=40.0)  # prune evicts seq 1
    assert harness.relay.stats.get("evicted.ttl", 0) == 1
    assert harness.relay.handle(stale_s2s[0], "s", "v", 41.0).forward
    assert tombstone_forwards(harness.relay) == 1
    assert_reconciled(harness)
    evict_reasons = [
        e.info for e in harness.obs.tracer.events if e.kind is K.RELAY_EVICT
    ]
    assert evict_reasons == ["ttl"]
