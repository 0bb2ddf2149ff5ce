"""Pipelined exchanges: multiple outstanding S1/A1/S2 cycles.

The role binding of Section 3.2.1 "enables a signer to send a new S1
packet immediately after receiving the A1 packet"; with
``max_outstanding > 1`` the implementation overlaps whole exchanges,
hiding the interlock RTT. These tests cover the mechanics, the
out-of-order identity-token acceptance it requires, and the end-to-end
speedup.
"""

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.packets import decode_packet
from repro.core.signer import ChannelConfig
from repro.netsim import Network
from repro.netsim.link import LinkConfig
from repro.transports.netsim import EndpointAdapter, RelayAdapter

from tests.core.test_sessions import make_channel

H = 20


class TestPipelinedSessions:
    def test_multiple_s1s_outstanding(self, sha1, rng):
        config = ChannelConfig(max_outstanding=3)
        signer, verifier = make_channel(sha1, rng, config)
        for i in range(5):
            signer.submit(b"p%d" % i)
        packets = signer.poll(0.0)
        # Three S1s go out at once; two messages stay queued.
        assert len(packets) == 3
        assert signer.queue_depth == 2
        seqs = [decode_packet(p, H).seq for p in packets]
        assert seqs == [1, 2, 3]

    def test_in_order_a1s_complete_all(self, sha1, rng):
        config = ChannelConfig(max_outstanding=3)
        signer, verifier = make_channel(sha1, rng, config)
        for i in range(3):
            signer.submit(b"p%d" % i)
        s1s = [decode_packet(p, H) for p in signer.poll(0.0)]
        for s1 in s1s:
            a1 = decode_packet(verifier.handle_s1(s1, 0.0), H)
            for raw in signer.handle_a1(a1, 0.0):
                verifier.handle_s2(decode_packet(raw, H), 0.0)
        delivered = [m.message for m in verifier.drain_delivered()]
        assert sorted(delivered) == [b"p0", b"p1", b"p2"]
        assert signer.stats.exchanges_completed == 3

    def test_reordered_a1s_accepted_once(self, sha1, rng):
        """A1s arriving in reverse order still complete every exchange —
        the derived-cache single-use path."""
        config = ChannelConfig(max_outstanding=3)
        signer, verifier = make_channel(sha1, rng, config)
        for i in range(3):
            signer.submit(b"p%d" % i)
        s1s = [decode_packet(p, H) for p in signer.poll(0.0)]
        a1s = [decode_packet(verifier.handle_s1(s1, 0.0), H) for s1 in s1s]
        all_s2 = []
        for a1 in reversed(a1s):  # worst-case reorder
            all_s2.extend(signer.handle_a1(a1, 0.0))
        assert len(all_s2) == 3
        for raw in all_s2:
            verifier.handle_s2(decode_packet(raw, H), 0.0)
        assert len(verifier.drain_delivered()) == 3

    def test_replayed_a1_rejected_after_cache_consumed(self, sha1, rng):
        config = ChannelConfig(max_outstanding=2)
        signer, verifier = make_channel(sha1, rng, config)
        signer.submit(b"x")
        signer.submit(b"y")
        s1s = [decode_packet(p, H) for p in signer.poll(0.0)]
        a1_first = decode_packet(verifier.handle_s1(s1s[0], 0.0), H)
        a1_second = decode_packet(verifier.handle_s1(s1s[1], 0.0), H)
        assert signer.handle_a1(a1_second, 0.0)  # commits past a1_first
        assert signer.handle_a1(a1_first, 0.0)  # cache hit, consumed
        # A replay of either A1 does nothing (exchange state + cache).
        assert signer.handle_a1(a1_first, 0.0) == []
        assert signer.handle_a1(a1_second, 0.0) == []

    def test_per_exchange_timeouts_independent(self, sha1, rng):
        config = ChannelConfig(max_outstanding=2, retransmit_timeout_s=1.0)
        signer, verifier = make_channel(sha1, rng, config)
        signer.submit(b"a")
        signer.submit(b"b")
        first = signer.poll(0.0)
        assert len(first) == 2
        # Only exchange 1's A1 arrives.
        a1 = decode_packet(verifier.handle_s1(decode_packet(first[0], H), 0.0), H)
        signer.handle_a1(a1, 0.0)
        retrans = signer.poll(1.5)
        # Exchange 2's S1 retransmits; exchange 1 is done (unreliable).
        assert [decode_packet(p, H).seq for p in retrans] == [2]

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelConfig(max_outstanding=0)


class TestPipeliningOverNetwork:
    def run(self, max_outstanding, n_messages=12, seed=0):
        net = Network.chain(4, config=LinkConfig(latency_s=0.01), seed=seed)
        cfg = EndpointConfig(chain_length=512)
        s = EndpointAdapter(AlphaEndpoint("s", cfg, seed=f"{seed}s"), net.nodes["s"])
        v = EndpointAdapter(AlphaEndpoint("v", cfg, seed=f"{seed}v"), net.nodes["v"])
        relays = [RelayAdapter(net.nodes[f"r{i}"]) for i in (1, 2, 3)]
        s.connect("v")
        net.simulator.run(until=1.0)
        s.endpoint.set_channel_config(
            "v", ChannelConfig(max_outstanding=max_outstanding)
        )
        start = net.simulator.now
        for i in range(n_messages):
            s.send("v", b"m%d" % i)
        while len(v.received) < n_messages and net.simulator.now < start + 60:
            net.simulator.run(until=net.simulator.now + 0.05)
        elapsed = net.simulator.now - start
        return elapsed, len(v.received), relays

    def test_pipelining_hides_interlock_rtt(self):
        sequential, got_seq, _ = self.run(max_outstanding=1, seed=3)
        pipelined, got_pipe, relays = self.run(max_outstanding=4, seed=3)
        assert got_seq == got_pipe == 12
        # Four overlapped exchanges should be ~3-4x faster in base mode.
        assert pipelined < sequential / 2
        for relay in relays:
            assert relay.engine.stats.get("dropped", 0) == 0

    def test_pipelining_with_jitter_reordering(self):
        net = Network.chain(3, config=LinkConfig(latency_s=0.005, jitter_s=0.01),
                            seed=17)
        cfg = EndpointConfig(chain_length=512, retransmit_timeout_s=0.3,
                             max_retries=20)
        s = EndpointAdapter(AlphaEndpoint("s", cfg, seed="17s"), net.nodes["s"])
        v = EndpointAdapter(AlphaEndpoint("v", cfg, seed="17v"), net.nodes["v"])
        RelayAdapter(net.nodes["r1"])
        RelayAdapter(net.nodes["r2"])
        s.connect("v")
        net.simulator.run(until=2.0)
        s.endpoint.set_channel_config("v", ChannelConfig(max_outstanding=4))
        for i in range(20):
            s.send("v", b"j%d" % i)
        net.simulator.run(until=60.0)
        assert sorted(m for _, m in v.received) == sorted(
            b"j%d" % i for i in range(20)
        )
