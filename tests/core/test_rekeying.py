"""Automatic association re-keying before chain exhaustion.

Hash chains are finite; a long-lived association must swap to fresh
chains (a new association id and a new handshake) before the old ones
run dry, without losing queued traffic.
"""

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import HandshakePacket, decode_packet
from repro.netsim import Network
from repro.transports.memory import MemoryNetwork
from repro.transports.netsim import EndpointAdapter, RelayAdapter


class TestRekeying:
    def make_pair(self, chain_length=12, threshold=2, seeds=(1, 2)):
        config = EndpointConfig(
            chain_length=chain_length, rekey_threshold=threshold
        )
        net = MemoryNetwork()
        a, b = (
            net.add_endpoint(AlphaEndpoint(name, config, seed=seed))
            for name, seed in zip("ab", seeds)
        )
        net.connect("a", "b")
        return net, a, b

    def test_rekey_triggered_near_exhaustion(self):
        net, a, b = self.make_pair(chain_length=12, threshold=2)
        first_id = a.association("b").assoc_id
        messages = [b"m%d" % i for i in range(20)]  # >> 6 exchanges
        for message in messages:
            net.send("a", "b", message)
        received = net.received_by("b")
        assert sorted(received) == sorted(messages)
        assert a.association("b").assoc_id != first_id

    def test_no_rekey_when_disabled(self):
        net, a, b = self.make_pair(chain_length=64, threshold=0, seeds=(3, 4))
        first_id = a.association("b").assoc_id
        for i in range(10):
            net.send("a", "b", b"x%d" % i)
        received = net.received_by("b")
        assert len(received) == 10
        assert a.association("b").assoc_id == first_id

    def test_rekey_happens_once_per_generation(self):
        net, a, b = self.make_pair(chain_length=12, threshold=2)
        for i in range(8):
            net.send("a", "b", b"y%d" % i)
        # Old association either retired+drained (gone) or marked.
        live = list(a._by_id.values())
        assert len([x for x in live if not x.retired]) >= 1
        current = a.association("b")
        assert not current.retired

    def test_retired_association_is_garbage_collected(self):
        net, a, b = self.make_pair(chain_length=12, threshold=2)
        for i in range(20):
            net.send("a", "b", b"z%d" % i)
        # GC happens on the poll after the retired association drains.
        a.poll(1000.0)
        assert len(a._by_id) <= 2
        assert not any(x.retired for x in a._by_id.values())

    def test_responder_follows_rekey(self):
        net, a, b = self.make_pair(chain_length=12, threshold=2)
        for i in range(20):
            net.send("a", "b", b"w%d" % i)
        assert b.association("a").assoc_id == a.association("b").assoc_id

    def test_rekey_over_network_with_relays(self):
        net = Network.chain(3)
        config = EndpointConfig(chain_length=16, rekey_threshold=2)
        s = EndpointAdapter(AlphaEndpoint("s", config, seed=5), net.nodes["s"])
        v = EndpointAdapter(AlphaEndpoint("v", config, seed=6), net.nodes["v"])
        relays = [RelayAdapter(net.nodes["r1"]), RelayAdapter(net.nodes["r2"])]
        s.connect("v")
        net.simulator.run(until=1.0)
        first_id = s.endpoint.association("v").assoc_id
        messages = [b"net%d" % i for i in range(30)]
        for m in messages:
            s.send("v", m)
        net.simulator.run(until=120.0)
        assert sorted(m for _, m in v.received) == sorted(messages)
        assert s.endpoint.association("v").assoc_id != first_id
        # Relays observed the re-key handshake and verified the new
        # association's traffic too.
        assert relays[0].engine.association_count() >= 2
        assert relays[0].engine.stats.get("dropped", 0) == 0


def rekey_exchange(config, both_ways, count=60, paced=False, flip=None):
    """Send ``count`` messages a->b (and b->a) over a
    :class:`MemoryNetwork`, which polls both endpoints after every
    packet — the cadence of an event loop with latency, where a poll can
    land between an exchange's A1 and S2. b sends one message per packet
    once established. a queues all of them at once or, ``paced``, sends
    each on a quiet link, one exchange per message. ``flip`` flips that
    bit of the first re-key HS1's ``assoc_id`` in flight. Returns what
    each side received, every failure reason and the number of
    associations the handshakes opened."""
    backlog = [b"b%d" % i for i in range(count)] if both_ways else []
    handshakes = []

    def link(src, dst, payload):
        nonlocal flip
        towards_a = b._by_peer.get("a")
        if backlog and towards_a is not None and towards_a.established:
            b.send("a", backlog.pop(0))
        packet = decode_packet(payload, 20)
        if not isinstance(packet, HandshakePacket):
            return payload
        if (
            flip is not None and handshakes and not packet.is_response
            and packet.assoc_id != handshakes[0]
        ):
            packet.assoc_id ^= 1 << flip
            payload, flip = packet.encode(), None
        handshakes.append(packet.assoc_id)
        return payload

    net = MemoryNetwork(link=link)
    a, b = (
        net.add_endpoint(AlphaEndpoint(name, config, seed=seed))
        for name, seed in (("a", 1), ("b", 2))
    )
    net.connect("a", "b")
    for i in range(count):
        if paced:
            net.send("a", "b", b"a%d" % i)
        else:
            a.send("b", b"a%d" % i)
    net.run()
    while True:
        deadlines = [d for d in (a.next_deadline(), b.next_deadline()) if d is not None]
        if not deadlines or net.now > 100.0:
            break
        net.now = max(net.now + 0.001, min(deadlines))
        net.run()
    received = {name: net.received_by(name) for name in "ab"}
    failures = [f.reason for _, f in net.failures]
    return received, failures, len(set(handshakes))


RELIABILITIES = pytest.mark.parametrize(
    "reliability",
    [ReliabilityMode.UNRELIABLE, ReliabilityMode.RELIABLE],
    ids=["unreliable", "reliable"],
)


class TestRekeyUnderEagerPolling:
    """A rekey must not lose the old association's last exchanges."""

    @pytest.mark.parametrize("both_ways", [False, True], ids=["one-way", "both-ways"])
    @RELIABILITIES
    def test_every_message_survives_the_rekeys(self, reliability, both_ways):
        config = EndpointConfig(chain_length=16, reliability=reliability)
        received, failures, _ = rekey_exchange(config, both_ways)
        assert sorted(received["b"]) == sorted(b"a%d" % i for i in range(60))
        expected_at_a = [b"b%d" % i for i in range(60)] if both_ways else []
        assert sorted(received["a"]) == sorted(expected_at_a)
        assert failures == []

    @pytest.mark.parametrize(
        "mode", [Mode.BASE, Mode.CUMULATIVE, Mode.MERKLE], ids=lambda m: m.name.lower()
    )
    @RELIABILITIES
    def test_no_s2_lost_across_many_rekeys(self, mode, reliability):
        """A rekey loses no S2 of the old association's last exchange,
        in every mode, over batches and many generations of chains."""
        config = EndpointConfig(
            mode=mode, reliability=reliability, batch_size=4, chain_length=32
        )
        received, failures, handshakes = rekey_exchange(
            config, both_ways=False, count=300, paced=True
        )
        assert sorted(received["b"]) == sorted(b"a%d" % i for i in range(300))
        assert failures == []
        assert handshakes >= 10

    @pytest.mark.parametrize("bit", [0, 5, 33, 62])
    def test_rekey_hs1_with_a_flipped_id_bit_loses_nothing(self, bit):
        """The first re-key HS1 arrives with one ``assoc_id`` bit flipped.
        b installs an association under the damaged id, moves its queue
        there and starts an exchange a never answers (a drops packets
        for an unknown id). The genuine retry supersedes it, and since
        no A1 ever reached it, no S2 left it: its in-flight message
        moves on with the queue. Every message arrives exactly once and
        nothing fails."""
        config = EndpointConfig(chain_length=16)
        received, failures, handshakes = rekey_exchange(
            config, both_ways=True, count=30, flip=bit
        )
        assert sorted(received["b"]) == sorted(b"a%d" % i for i in range(30))
        assert sorted(received["a"]) == sorted(b"b%d" % i for i in range(30))
        assert failures == []
        # The first association, the damaged id and the genuine re-key.
        assert handshakes >= 3

    def test_busy_counts_retired_associations(self):
        config = EndpointConfig(chain_length=64)
        a = AlphaEndpoint("a", config, seed=1)
        b = AlphaEndpoint("b", config, seed=2)
        _, hs1 = a.connect("b")
        a.on_packet(b.on_packet(hs1, "a", 0.0).replies[0][1], "b", 0.0)
        a.send("b", b"in flight")
        assert a.poll(0.0).replies  # the S1 is out, its exchange open
        # A replacement took the peer slot; the retired association
        # still owes its in-flight exchange.
        a._by_peer.pop("b").retired = True
        assert a.busy

    def test_lost_s2_cannot_pin_a_retired_association(self):
        config = EndpointConfig(chain_length=64, rto_max_s=1.0, max_retries=2)
        a = AlphaEndpoint("a", config, seed=1)
        b = AlphaEndpoint("b", config, seed=2)
        _, hs1 = a.connect("b")
        a.on_packet(b.on_packet(hs1, "a", 0.0).replies[0][1], "b", 0.0)
        a.send("b", b"lost")
        (_, s1), = a.poll(0.0).replies
        (_, a1), = b.on_packet(s1, "a", 0.0).replies
        assert a.on_packet(a1, "b", 0.0).replies  # the S2, never delivered
        old = b._by_peer.pop("a")
        old.retired = True
        b.poll(0.0)
        # Kept for the peer's exchange, until the drain deadline: the
        # peer's retry schedule at the RTO ceiling, (2 + 1) x 1 s.
        assert old.assoc_id in b._by_id
        assert b.next_deadline() == 3.0
        b.poll(2.9)
        assert old.assoc_id in b._by_id
        b.poll(3.0)
        assert old.assoc_id not in b._by_id
