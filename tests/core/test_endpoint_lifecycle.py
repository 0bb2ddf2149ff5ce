"""Association lifecycle regressions: leaks, exhaustion, rekey wedges.

Three bugs that each stall or leak a long-running endpoint:

- drained retired associations were deleted from ``_by_id`` only,
  leaving them pinned in ``_by_peer`` forever;
- an exhausted chain raised ``ChainExhaustedError`` out of ``poll()``
  even when a re-key replacement was already in flight, killing the
  event loop for every other association in the process;
- a re-key replacement whose handshake failed terminally left the
  parent's ``replacement_id`` set, so re-keying never retried and the
  association wedged at exhaustion.
"""

import gc
import weakref

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.packets import PacketType


def establish(a, b):
    _, hs1 = a.connect("b")
    out = b.on_packet(hs1, "a", 0.0)
    a.on_packet(out.replies[0][1], "b", 0.0)
    assert a.association("b").established


def packet_type(data: bytes) -> PacketType:
    # Header layout: u16 magic, u8 version, u8 type.
    return PacketType(data[3])


def pump(a, b, now, *, drop_handshakes=False, rounds=64, delivered=None):
    """Exchange replies both ways; optionally censor handshake packets.

    Drains reply-to-reply chains to completion (unreliable mode never
    resends an S2, so a lossy pump would fabricate message loss).
    ``delivered``, when given, collects every message either endpoint
    delivers.
    """
    outbox = []
    for src, dst in ((a, b), (b, a)):
        outbox.extend((src, dst, data) for _d, data in src.poll(now).replies)
    for _ in range(rounds):
        if not outbox:
            break
        batch, outbox = outbox, []
        for src, dst, data in batch:
            if drop_handshakes and packet_type(data) in (
                PacketType.HS1, PacketType.HS2,
            ):
                continue
            out = dst.on_packet(data, src.name, now)
            if delivered is not None:
                delivered.extend(m.message for _p, m in out.delivered)
            outbox.extend((dst, src, d2) for _d, d2 in out.replies)
        now += 0.001
    assert not outbox, "pump round budget too small for in-flight traffic"


class TestDrainReleasesBothMaps:
    def test_drained_association_leaves_by_peer_too(self):
        # Force the exact drain path: a retired association whose signer
        # has gone idle is garbage-collected by poll() — from *both*
        # maps, even when no replacement has overwritten the peer slot.
        a = AlphaEndpoint("a", EndpointConfig(chain_length=64), seed=1)
        b = AlphaEndpoint("b", EndpointConfig(chain_length=64), seed=2)
        establish(a, b)
        assoc = a.association("b")
        assoc.retired = True
        a.poll(1.0)
        assert assoc.assoc_id not in a._by_id
        assert "b" not in a._by_peer

    def test_rekey_drain_releases_the_old_association_object(self):
        config = EndpointConfig(chain_length=12, rekey_threshold=2)
        a = AlphaEndpoint("a", config, seed=3)
        b = AlphaEndpoint("b", config, seed=4)
        establish(a, b)
        first = a.association("b")
        ref = weakref.ref(first)
        first_id = first.assoc_id
        del first
        now = 0.0
        for i in range(20):
            a.send("b", b"m%d" % i)
            now += 0.05
            pump(a, b, now)
        a.poll(now + 100.0)
        assert a.association("b").assoc_id != first_id
        # Both maps must have released the retired generation...
        assert first_id not in a._by_id
        assert all(x.assoc_id in a._by_id for x in a._by_peer.values())
        # ...and nothing else (stats are copied, not referenced) may pin
        # the object graph alive.
        gc.collect()
        assert ref() is None

    def test_every_by_peer_entry_is_in_by_id_after_churn(self):
        config = EndpointConfig(chain_length=12, rekey_threshold=2)
        a = AlphaEndpoint("a", config, seed=5)
        b = AlphaEndpoint("b", config, seed=6)
        establish(a, b)
        now = 0.0
        for i in range(40):
            a.send("b", b"c%d" % i)
            now += 0.05
            pump(a, b, now)
        a.poll(now + 100.0)
        for endpoint in (a, b):
            for assoc in endpoint._by_peer.values():
                assert endpoint._by_id.get(assoc.assoc_id) is assoc


class TestExhaustionUnderRekey:
    def test_delayed_replacement_defers_instead_of_raising(self):
        # Censor every handshake packet: the re-key HS1 never lands, the
        # old chains burn down to zero, and the backlog must *queue* —
        # not raise ChainExhaustedError out of the event loop.
        config = EndpointConfig(
            chain_length=8, rekey_threshold=2, retransmit_timeout_s=0.05,
            max_retries=50,
        )
        a = AlphaEndpoint("a", config, seed=7)
        b = AlphaEndpoint("b", config, seed=8)
        establish(a, b)
        now = 0.0
        delivered = []
        for i in range(12):
            a.send("b", b"x%d" % i)
            now += 0.1
            pump(a, b, now, drop_handshakes=True, delivered=delivered)
        assoc = a.association("b")
        assert assoc.chains.signature.remaining_exchanges == 0
        assert assoc.signer.queue_depth > 0  # parked, not crashed
        # Lift the censorship: the replacement establishes, the backlog
        # migrates onto fresh chains, and every message arrives.
        for _ in range(80):
            now += 0.1
            pump(a, b, now, delivered=delivered)
            if not a.busy:
                break
        assert sorted(delivered) == sorted(b"x%d" % i for i in range(12))

    def test_failed_replacement_handshake_unwedges_rekey(self):
        # The replacement's HS1 retries run out (peer never answers):
        # _fail_handshake must clear the parent's replacement marker so
        # the next poll can try again rather than wedging forever.
        config = EndpointConfig(
            chain_length=8, rekey_threshold=2, retransmit_timeout_s=0.05,
            max_retries=2,
        )
        a = AlphaEndpoint("a", config, seed=9)
        b = AlphaEndpoint("b", config, seed=10)
        establish(a, b)
        parent = a.association("b")
        now = 0.0
        # Burn chain into rekey territory with handshakes censored.
        for i in range(8):
            a.send("b", b"y%d" % i)
            now += 0.1
            pump(a, b, now, drop_handshakes=True)
        assert parent.replacement_id is not None
        first_replacement = parent.replacement_id
        # Let the replacement's retry budget expire (b never sees HS1).
        for _ in range(10):
            now += 0.1
            a.poll(now)
        assert first_replacement not in a._by_id  # failed and torn down
        assert parent.replacement_id != first_replacement
        # Either a fresh replacement is already in flight, or the next
        # service starts one — never a permanent wedge.
        a.poll(now + 0.1)
        assert parent.replacement_id is not None
