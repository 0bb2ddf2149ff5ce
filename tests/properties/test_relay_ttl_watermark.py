"""Differential property test: the relay's bookkeeping vs the plain rules.

Each relay channel keeps three pieces of bookkeeping so that a packet
costs O(1) of it (PROTOCOL.md §14.5):

- ``_oldest``, a lower bound on every buffered exchange's ``last_seen``
  and every recovering record's ``restored_at``: ``prune`` returns at
  once while ``now - _oldest <= ttl``, because then nothing can have
  expired; otherwise it scans and recomputes the bound;
- ``_order``, the ``(last_seen, seq)`` of every buffered exchange kept
  sorted, whose head is the capacity-eviction victim;
- ``_buffered_bytes``, the running byte total the byte cap reads.

The reference here, :class:`ReferenceChannel`, keeps the plain rules:
it scans for expired state on every call, picks the victim as the
``min`` of ``(last_seen, seq)`` over the buffered exchanges, and
re-totals the buffers on every byte-cap check. Two relays, one of each,
judge the same random S1/A1/S2 sequence with a clock that also runs
backwards, a crash journal restore part way, and all three eviction
causes (TTL, entry cap, byte cap). After every step the decisions, the
buffered exchanges, the tombstone order, the recovering records, the
byte totals and the ``stats`` books (evictions included) must agree.
"""

from __future__ import annotations

import json
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core import relay as relay_module
from repro.core.hashchain import ACKNOWLEDGMENT_TAGS, HashChain
from repro.core.modes import Mode
from repro.core.packets import A1Packet, S1Packet, S2Packet
from repro.core.relay import RelayConfig, RelayEngine, _ChannelObserver
from repro.crypto.hashes import get_hash

ASSOC = 5
CHAIN = 64
EXCHANGES = 8
H = 20
TTL = 10.0
CONFIG = RelayConfig(
    strict=True,
    forward_unknown=False,
    exchange_ttl_s=TTL,
    max_buffered_exchanges=3,
    # Two 4-message S1s (80 B each) or one reliable A1 commit go over.
    max_buffered_bytes=150,
    evicted_memory=4,
)


class ReferenceChannel(_ChannelObserver):
    """Reference: a TTL scan on every packet, a ``min`` for the victim,
    and a re-total of the buffers for the byte cap."""

    def prune(self, now):
        ttl = self.config.exchange_ttl_s
        if ttl is None:
            return
        expired = [
            seq for seq, exchange in self.exchanges.items()
            if now - exchange.last_seen > ttl
        ]
        for seq in expired:
            self._evict(seq, now, "ttl")
            self.stats["evicted.ttl"] = self.stats.get("evicted.ttl", 0) + 1
        stale = [
            seq for seq, record in self.recovering.items()
            if now - record["restored_at"] > ttl
        ]
        for seq in stale:
            del self.recovering[seq]
            self._remember_tombstone(seq)

    def _least_recent(self):
        return min(
            self.exchanges, key=lambda seq: (self.exchanges[seq].last_seen, seq)
        )

    @property
    def buffered_bytes(self):
        return sum(exchange.buffered_bytes for exchange in self.exchanges.values())

    def _enforce_byte_cap(self, now=0.0):
        cap = self.config.max_buffered_bytes
        if cap is not None:
            while len(self.exchanges) > 1 and self.buffered_bytes > cap:
                self._evict(self._least_recent(), now, "byte-cap")
                self.stats["evicted.capacity"] = (
                    self.stats.get("evicted.capacity", 0) + 1
                )


class ReferenceRelay(RelayEngine):
    """A relay whose channels are :class:`ReferenceChannel`."""

    def provision(self, *args, **kwargs):
        with mock.patch.object(relay_module, "_ChannelObserver", ReferenceChannel):
            super().provision(*args, **kwargs)

    def _restore_channel(self, *args):
        with mock.patch.object(relay_module, "_ChannelObserver", ReferenceChannel):
            return super()._restore_channel(*args)


class Traffic:
    """Genuine packets of ``EXCHANGES`` exchanges, built on demand."""

    def __init__(self, seed: bytes) -> None:
        sha1 = get_hash("sha1")
        self.sig = HashChain(sha1, seed + b"sig", CHAIN)
        self.ack = HashChain(sha1, seed + b"ack", CHAIN, tags=ACKNOWLEDGMENT_TAGS)
        self.mac = sha1.mac

    def messages(self, seq: int, count: int) -> list[bytes]:
        return [b"m%d.%d" % (seq, i) for i in range(count)]

    def s1(self, seq: int, count: int, reliable: bool) -> bytes:
        token = self.sig.element(CHAIN - 2 * seq + 1)
        key = self.sig.value_at(CHAIN - 2 * seq)
        return S1Packet(
            assoc_id=ASSOC, seq=seq,
            mode=Mode.CUMULATIVE if count > 1 else Mode.BASE,
            chain_index=token.index, chain_element=token.value,
            pre_signatures=[self.mac(key, m) for m in self.messages(seq, count)],
            message_count=count, reliable=reliable,
        ).encode()

    def a1(self, seq: int, count: int, reliable: bool) -> bytes:
        token = self.sig.element(CHAIN - 2 * seq + 1)
        ack = self.ack.element(CHAIN - 2 * seq + 1)
        pre = [bytes([seq, i]) * (H // 2) for i in range(count)] if reliable else []
        return A1Packet(
            assoc_id=ASSOC, seq=seq, ack_index=ack.index, ack_element=ack.value,
            echo_sig_index=token.index, echo_sig_element=token.value,
            pre_acks=pre, pre_nacks=list(reversed(pre)),
        ).encode()

    def s2(self, seq: int, count: int, index: int) -> bytes:
        key = self.sig.element(CHAIN - 2 * seq)
        return S2Packet(
            assoc_id=ASSOC, seq=seq, disclosed_index=key.index,
            disclosed_element=key.value, msg_index=index % count,
            message=self.messages(seq, count)[index % count],
        ).encode()


def provisioned(cls, traffic: Traffic) -> RelayEngine:
    engine = cls(get_hash("sha1"), CONFIG)
    engine.provision(
        ASSOC, "s", "v",
        traffic.sig.anchor, traffic.ack.anchor, traffic.sig.anchor, traffic.ack.anchor,
    )
    return engine


def channels(engine: RelayEngine):
    assoc = engine._associations[ASSOC]
    return assoc.forward_channel, assoc.reverse_channel


def state(engine: RelayEngine):
    """Everything both relays must agree on, bar the byte totals."""
    return [
        (
            [(seq, ex.last_seen) for seq, ex in channel.exchanges.items()],
            list(channel.evicted),
            channel.recovering,
        )
        for channel in channels(engine)
    ], engine.stats


def assert_agree(fast: RelayEngine, reference: RelayEngine, where) -> None:
    assert state(fast) == state(reference), where
    # The running totals against the reference's re-total of its buffers.
    assert [channel._buffered_bytes for channel in channels(fast)] == [
        channel.buffered_bytes for channel in channels(reference)
    ], where


def assert_watermark_holds(engine: RelayEngine) -> None:
    for channel in channels(engine):
        stamps = [ex.last_seen for ex in channel.exchanges.values()]
        stamps += [record["restored_at"] for record in channel.recovering.values()]
        assert channel._oldest <= min(stamps, default=float("inf"))


def restored(cls, engine: RelayEngine, now: float) -> RelayEngine:
    journal = json.loads(json.dumps(engine.snapshot()))
    return cls.restore(get_hash("sha1"), journal, CONFIG, now=now)


def run(traffic: Traffic, shapes, schedule):
    """Drive both relays through ``schedule``; returns every fast relay
    in the order restores replaced them."""
    fast = provisioned(RelayEngine, traffic)
    reference = provisioned(ReferenceRelay, traffic)
    lives = [fast]
    now = 0.0
    for operation, seq, index, step in schedule:
        now += step
        count, reliable = shapes[seq - 1]
        if operation == "restore":
            fast = restored(RelayEngine, fast, now)
            reference = restored(ReferenceRelay, reference, now)
            lives.append(fast)
        else:
            if operation == "s1":
                data, src = traffic.s1(seq, count, reliable), "s"
            elif operation == "a1":
                data, src = traffic.a1(seq, count, reliable), "v"
            else:
                data, src = traffic.s2(seq, count, index), "s"
            dst = "v" if src == "s" else "s"
            got = fast.handle(data, src, dst, now)
            want = reference.handle(data, src, dst, now)
            assert (got.forward, got.reason, got.verified) == (
                want.forward, want.reason, want.verified
            )
        assert_agree(fast, reference, (operation, seq, now))
        assert_watermark_holds(fast)
    return lives


shapes = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4), st.booleans()),
    min_size=EXCHANGES, max_size=EXCHANGES,
)
steps = st.lists(
    st.tuples(
        st.sampled_from(["s1", "s1", "a1", "s2", "s2", "restore"]),
        st.integers(min_value=1, max_value=EXCHANGES),
        st.integers(min_value=0, max_value=3),  # S2 message index
        # Steps within the TTL, past it, and backwards; a zero step is
        # drawn often, so exchanges tie on ``last_seen`` and the victim
        # falls to the ``seq`` tie-break.
        st.sampled_from(
            [0.0, 0.0, 0.0, 0.5, 1.0, 3.0, 6.0, 9.0, TTL + 1, -3.0, -TTL - 2]
        ),
    ),
    min_size=1,
    max_size=50,
)


@settings(max_examples=200, deadline=None)
@given(seed=st.binary(min_size=4, max_size=4), shapes=shapes, schedule=steps)
def test_watermark_prune_matches_full_scan(seed, shapes, schedule):
    run(Traffic(seed), shapes, schedule)


def test_every_eviction_cause_and_a_restore_agree():
    """One fixed run that reaches all three causes, a backwards clock
    and a restored journal whose records age into tombstones."""
    schedule = [
        ("s1", 1, 0, 0.0), ("a1", 1, 0, 0.5), ("s2", 1, 0, 0.5),
        ("s1", 2, 0, 1.0), ("s1", 3, 0, 1.0), ("s1", 4, 0, 1.0),  # entry cap
        ("a1", 2, 0, -2.0),  # clock back; reliable A1 over the byte cap
        ("s1", 5, 0, TTL + 2),  # TTL
        ("restore", 1, 0, 0.5),
        ("s2", 5, 0, 0.5),  # recovering: passes through
        ("s1", 6, 0, TTL + 1),  # the recovering records turn into tombstones
        ("s1", 7, 0, -1.0),
    ]
    shapes = [(2, False), (4, True), (1, False), (1, False),
              (1, False), (1, False), (1, False), (1, False)]
    crashed, fast = run(Traffic(b"seed"), shapes, schedule)
    assert crashed.stats["evicted.ttl"] == 1
    assert crashed.stats["evicted.capacity"] == 2  # entry cap, byte cap
    assert fast.stats["s2-recovering"] == 1
    forward, _ = channels(fast)
    assert 5 in forward.evicted and not forward.recovering


def test_victim_ties_break_on_seq():
    """Exchanges stamped at one instant evict lowest ``seq`` first, and a
    touch at another instant re-sorts an exchange among the ties."""
    schedule = [
        ("s1", 1, 0, 0.0), ("s1", 2, 0, 0.0), ("s1", 3, 0, 0.0),
        ("s1", 4, 0, 0.0),  # entry cap: seq 1 goes, not the new seq 4
        ("a1", 3, 0, 1.0),
        ("a1", 2, 0, 0.0),  # seq 2 joins seq 3 at 1.0, ahead of it
        ("s1", 5, 0, 0.0),  # seq 4, alone at 0.0, goes
        ("s1", 6, 0, 0.0),  # seq 2, the lowest of three tied, goes
        ("s1", 7, 0, -2.0),  # clock back: seq 7 is the oldest, so it goes
    ]
    shapes = [(1, False)] * EXCHANGES
    (fast,) = run(Traffic(b"ties"), shapes, schedule)
    forward, _ = channels(fast)
    assert list(forward.evicted) == [1, 4, 2, 7]
    assert sorted(forward.exchanges) == [3, 5, 6]
    assert fast.stats["a1-ok"] == 2
