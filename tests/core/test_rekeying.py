"""Automatic association re-keying before chain exhaustion.

Hash chains are finite; a long-lived association must swap to fresh
chains (a new association id and a new handshake) before the old ones
run dry, without losing queued traffic.
"""

from collections import deque

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import HandshakePacket, decode_packet
from repro.netsim import Network
from repro.transports.netsim import EndpointAdapter, RelayAdapter


def pump(a, b, rounds=200, step=0.02):
    now = 0.0
    for _ in range(rounds):
        now += step
        for src, dst in ((a, b), (b, a)):
            out = src.poll(now)
            for dest, data in out.replies:
                dst.on_packet(data, src.name, now)
        # Second pass so replies to replies settle within the round.
        for src, dst in ((a, b), (b, a)):
            out = src.poll(now)
            for dest, data in out.replies:
                dst.on_packet(data, src.name, now)


def flow(a, b, messages, now_start=0.0, rounds=400):
    """Send messages a->b while pumping both endpoints; returns received."""
    received = []
    now = now_start
    queue = list(messages)
    for _ in range(rounds):
        now += 0.05
        if queue:
            a.send(b.name, queue.pop(0))
        for src, dst in ((a, b), (b, a)):
            out = src.poll(now)
            for dest, data in out.replies:
                result = dst.on_packet(data, src.name, now)
                received.extend(m.message for _, m in result.delivered)
                for dest2, data2 in result.replies:
                    result2 = src.on_packet(data2, dst.name, now)
                    received.extend(m.message for _, m in result2.delivered)
                    for dest3, data3 in result2.replies:
                        result3 = dst.on_packet(data3, src.name, now)
                        received.extend(m.message for _, m in result3.delivered)
        if not queue and not a.busy:
            break
    return received


class TestRekeying:
    def make_pair(self, chain_length=12, threshold=2):
        config = EndpointConfig(
            chain_length=chain_length, rekey_threshold=threshold
        )
        a = AlphaEndpoint("a", config, seed=1)
        b = AlphaEndpoint("b", config, seed=2)
        _, hs1 = a.connect("b")
        out = b.on_packet(hs1, "a", 0.0)
        a.on_packet(out.replies[0][1], "b", 0.0)
        return a, b

    def test_rekey_triggered_near_exhaustion(self):
        a, b = self.make_pair(chain_length=12, threshold=2)
        first_id = a.association("b").assoc_id
        messages = [b"m%d" % i for i in range(20)]  # >> 6 exchanges
        received = flow(a, b, messages)
        assert sorted(received) == sorted(messages)
        assert a.association("b").assoc_id != first_id

    def test_no_rekey_when_disabled(self):
        config = EndpointConfig(chain_length=64, rekey_threshold=0)
        a = AlphaEndpoint("a", config, seed=3)
        b = AlphaEndpoint("b", config, seed=4)
        _, hs1 = a.connect("b")
        out = b.on_packet(hs1, "a", 0.0)
        a.on_packet(out.replies[0][1], "b", 0.0)
        first_id = a.association("b").assoc_id
        received = flow(a, b, [b"x%d" % i for i in range(10)])
        assert len(received) == 10
        assert a.association("b").assoc_id == first_id

    def test_rekey_happens_once_per_generation(self):
        a, b = self.make_pair(chain_length=12, threshold=2)
        flow(a, b, [b"y%d" % i for i in range(8)])
        # Old association either retired+drained (gone) or marked.
        live = list(a._by_id.values())
        assert len([x for x in live if not x.retired]) >= 1
        current = a.association("b")
        assert not current.retired

    def test_retired_association_is_garbage_collected(self):
        a, b = self.make_pair(chain_length=12, threshold=2)
        flow(a, b, [b"z%d" % i for i in range(20)])
        # GC happens on the poll after the retired association drains.
        a.poll(1000.0)
        assert len(a._by_id) <= 2
        assert not any(x.retired for x in a._by_id.values())

    def test_responder_follows_rekey(self):
        a, b = self.make_pair(chain_length=12, threshold=2)
        flow(a, b, [b"w%d" % i for i in range(20)])
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


def fifo_exchange(config, both_ways, count=60, paced=False, flip=None):
    """Send ``count`` messages a->b (and b->a) over one FIFO queue,
    polling both endpoints after every packet — the cadence of an event
    loop with latency, where a poll can land between an exchange's A1
    and S2. b sends one message per packet once established. a queues
    all of them at once or, ``paced``, sends each on a quiet link, one
    exchange per message. ``flip`` flips that bit of the first re-key
    HS1's ``assoc_id`` in flight. Returns what each side received, every
    failure reason and the number of associations the handshakes
    opened."""
    endpoints = {
        "a": AlphaEndpoint("a", config, seed=1),
        "b": AlphaEndpoint("b", config, seed=2),
    }
    a, b = endpoints["a"], endpoints["b"]
    queue = deque([("a", "b", a.connect("b")[1])])
    received = {"a": [], "b": []}
    failures = []
    handshakes = set()

    def absorb(name, out):
        queue.extend((name, dest, data) for dest, data in out.replies)
        received[name].extend(m.message for _, m in out.delivered)
        failures.extend(f.reason for _, f in out.failures)

    for i in range(0 if paced else count):
        a.send("b", b"a%d" % i)
    paced_sends = [b"a%d" % i for i in range(count)] if paced else []
    backlog = [b"b%d" % i for i in range(count)] if both_ways else []
    now = 0.0
    first_id = decode_packet(queue[0][2], 20).assoc_id
    for _ in range(50_000):
        if backlog and "a" in b.peers and b.association("a").established:
            b.send("a", backlog.pop(0))
        if paced_sends and not queue and a.association("b").established:
            a.send("b", paced_sends.pop(0))
        if queue:
            src, dst, data = queue.popleft()
            packet = decode_packet(data, 20)
            if (
                flip is not None and isinstance(packet, HandshakePacket)
                and not packet.is_response and packet.assoc_id != first_id
            ):
                packet.assoc_id ^= 1 << flip
                data, flip = packet.encode(), None
            if isinstance(packet, HandshakePacket):
                handshakes.add(packet.assoc_id)
            absorb(dst, endpoints[dst].on_packet(data, src, now))
        for name, endpoint in endpoints.items():
            absorb(name, endpoint.poll(now))
        if not queue and not paced_sends:
            deadlines = [
                d for d in (a.next_deadline(), b.next_deadline()) if d is not None
            ]
            if not deadlines or now > 100.0:
                break
            now = max(now + 0.001, min(deadlines))
    return received, failures, len(handshakes)


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
        received, failures, _ = fifo_exchange(config, both_ways)
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
        received, failures, handshakes = fifo_exchange(
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
        received, failures, handshakes = fifo_exchange(
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
