"""Association lifecycle regressions: leaks, exhaustion, rekey wedges.

Four bugs that each stall, leak or lose messages in a long-running
endpoint:

- drained retired associations were deleted from ``_by_id`` only,
  leaving them pinned in ``_by_peer`` forever;
- an exhausted chain raised ``ChainExhaustedError`` out of ``poll()``
  even when a re-key replacement was already in flight, killing the
  event loop for every other association in the process;
- a re-key replacement whose handshake failed terminally left the
  parent's ``replacement_id`` set, so re-keying never retried and the
  association wedged at exhaustion;
- with re-keying off, the exhaustion raise took the next batch off the
  queue with it.
"""

import gc
import weakref

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.exceptions import ChainExhaustedError
from repro.core.modes import Mode
from repro.core.packets import PacketType

from tests.core.test_bootstrap_endpoint import network


def establish(a, b):
    _, hs1 = a.connect("b")
    out = b.on_packet(hs1, "a", 0.0)
    a.on_packet(out.replies[0][1], "b", 0.0)
    assert a.association("b").established


def packet_type(data: bytes) -> PacketType:
    # Header layout: u16 magic, u8 version, u8 type.
    return PacketType(data[3])


def censor_handshakes(src, dst, payload):
    """A :class:`MemoryNetwork` link that drops HS1 and HS2 packets."""
    if packet_type(payload) in (PacketType.HS1, PacketType.HS2):
        return None
    return payload


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
        net = network(a, b)
        for i in range(20):
            a.send("b", b"m%d" % i)
            net.advance(0.05)
        a.poll(net.now + 100.0)
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
        net = network(a, b)
        for i in range(40):
            a.send("b", b"c%d" % i)
            net.advance(0.05)
        a.poll(net.now + 100.0)
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
        net = network(a, b, link=censor_handshakes)
        for i in range(12):
            a.send("b", b"x%d" % i)
            net.advance(0.1)
        assoc = a.association("b")
        assert assoc.chains.signature.remaining_exchanges == 0
        assert assoc.signer.queue_depth > 0  # parked, not crashed
        # Lift the censorship: the replacement establishes, the backlog
        # migrates onto fresh chains, and every message arrives.
        net.link = None
        for _ in range(80):
            net.advance(0.1)
            if not a.busy:
                break
        delivered = [m for _, m in net.delivered]
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
        net = network(a, b, link=censor_handshakes)
        # Burn chain into rekey territory with handshakes censored.
        for i in range(8):
            a.send("b", b"y%d" % i)
            net.advance(0.1)
        assert parent.replacement_id is not None
        first_replacement = parent.replacement_id
        # Let the replacement's retry budget expire (b never sees HS1).
        now = net.now
        for _ in range(10):
            now += 0.1
            a.poll(now)
        assert first_replacement not in a._by_id  # failed and torn down
        assert parent.replacement_id != first_replacement
        # Either a fresh replacement is already in flight, or the next
        # service starts one — never a permanent wedge.
        a.poll(now + 0.1)
        assert parent.replacement_id is not None


class TestExhaustionWithoutRekey:
    def test_exhausted_chain_raises_with_the_next_batch_still_queued(self):
        """With re-keying off, exhaustion stays loud (PROTOCOL.md §15),
        but the batch the failed turn would have sent stays queued.

        A BASE pair over a :class:`MemoryNetwork`, which polls after
        every packet, with a 4-element chain (two exchanges) and six
        messages: ``m0`` is delivered, and the A1 of ``m1``'s exchange
        raises. Before the signer drew its chain elements ahead of
        taking the batch, the raise also took ``m2`` off the queue and
        lost it. ``m1`` is still lost: its S2, built by ``handle_a1`` in
        the same call, dies with the exception (ROADMAP, "No message
        vanishes").
        """
        config = EndpointConfig(mode=Mode.BASE, chain_length=4, rekey_threshold=0)
        a = AlphaEndpoint("a", config, seed=1)
        b = AlphaEndpoint("b", config, seed=2)
        establish(a, b)
        for i in range(6):
            a.send("b", b"m%d" % i)
        net = network(a, b)
        with pytest.raises(ChainExhaustedError):
            net.run()
        delivered = [m for _, m in net.delivered]
        assert delivered == [b"m0"]
        assert a.association("b").signer.take_unsent() == [b"m2", b"m3", b"m4", b"m5"]
