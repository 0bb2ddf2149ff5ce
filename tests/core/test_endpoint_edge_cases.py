"""Endpoint and session edge cases: eviction, multi-peer, MMO end-to-end."""

import gc
import weakref

from repro.core.bootstrap import establish_static
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import decode_packet
from repro.core.signer import ChannelConfig
from repro.crypto.hashes import get_hash
from repro.netsim import Network
from repro.obs import Observability
from repro.transports.netsim import EndpointAdapter, RelayAdapter

from tests.core.test_sessions import make_channel


class TestVerifierEviction:
    def test_oldest_exchange_evicted(self, sha1, rng):

        signer, verifier = make_channel(sha1, rng, chain_length=256)
        verifier.max_buffered_exchanges = 2
        s2s = {}
        for i in range(4):
            signer.submit(b"m%d" % i)
            s1 = decode_packet(signer.poll(0.0)[0], 20)
            a1 = decode_packet(verifier.handle_s1(s1, 0.0), 20)
            s2s[s1.seq] = decode_packet(signer.handle_a1(a1, 0.0)[0], 20)
        # Exchanges 1 and 2 were evicted; their late S2s are rejected.
        assert verifier.handle_s2(s2s[1], 0.0) is None
        assert verifier.rejected_s2 >= 1
        # The two newest still verify.
        verifier.handle_s2(s2s[3], 0.0)
        verifier.handle_s2(s2s[4], 0.0)
        delivered = {m.message for m in verifier.drain_delivered()}
        assert delivered == {b"m2", b"m3"}

    def test_relay_eviction_bounds_memory(self, sha1, rng):
        from repro.core.relay import RelayConfig

        from benchmarks.harness import build_channel

        channel = build_channel(seed=9)
        channel.relay.config = RelayConfig(max_buffered_exchanges=3)
        for assoc in channel.relay._associations.values():
            assoc.forward_channel.config = channel.relay.config
        for i in range(10):
            channel.signer.submit(b"x%d" % i)
            s1_raw = channel.signer.poll(0.0)[0]
            channel.relay.handle(s1_raw, "s", "v", 0.0)
            a1 = channel.verifier.handle_s1(decode_packet(s1_raw, 20), 0.0)
            channel.relay.handle(a1, "v", "s", 0.0)
            for raw in channel.signer.handle_a1(decode_packet(a1, 20), 0.0):
                channel.relay.handle(raw, "s", "v", 0.0)
                channel.verifier.handle_s2(decode_packet(raw, 20), 0.0)
        fwd = channel.relay._associations[0xBE7C].forward_channel
        assert len(fwd.exchanges) <= 3


class TestMultiPeerEndpoint:
    def test_three_concurrent_peers(self):
        hub = AlphaEndpoint("hub", EndpointConfig(chain_length=128), seed=1)
        spokes = [
            AlphaEndpoint(f"n{i}", EndpointConfig(chain_length=128), seed=10 + i)
            for i in range(3)
        ]
        for spoke in spokes:
            establish_static(hub, spoke)
        assert hub.peers == ["n0", "n1", "n2"]
        for i, spoke in enumerate(spokes):
            hub.send(f"n{i}", b"to-%d" % i)
            spoke.send("hub", b"from-%d" % i)
        # Pump a full-mesh queue until quiescent, collecting deliveries.
        endpoints = {"hub": hub, **{s.name: s for s in spokes}}
        got = {name: [] for name in endpoints}
        queue = []
        now = 0.0
        for _ in range(30):
            now += 0.05
            for name, endpoint in endpoints.items():
                out = endpoint.poll(now)
                queue.extend((name, dest, data) for dest, data in out.replies)
            while queue:
                src, dest, data = queue.pop(0)
                result = endpoints[dest].on_packet(data, src, now)
                got[dest].extend(m.message for _, m in result.delivered)
                queue.extend((dest, d2, p2) for d2, p2 in result.replies)
        assert sorted(got["hub"]) == [b"from-0", b"from-1", b"from-2"]
        for i, spoke in enumerate(spokes):
            assert got[spoke.name] == [b"to-%d" % i]

    def test_per_peer_channel_configs_independent(self):
        hub = AlphaEndpoint("hub", EndpointConfig(chain_length=128), seed=2)
        a = AlphaEndpoint("a", EndpointConfig(chain_length=128), seed=3)
        b = AlphaEndpoint("b", EndpointConfig(chain_length=128), seed=4)
        establish_static(hub, a)
        establish_static(hub, b)
        hub.set_channel_config("a", ChannelConfig(mode=Mode.MERKLE, batch_size=4))
        hub.set_channel_config("b", ChannelConfig(mode=Mode.BASE))
        assert hub.association("a").signer.config.mode is Mode.MERKLE
        assert hub.association("b").signer.config.mode is Mode.BASE


class TestNoReferenceCycle:
    def test_dropped_endpoints_are_freed_without_the_cycle_collector(self):
        # Every signer carries the endpoint's path-failover hook. Were it
        # a strong reference, each endpoint and its chains would live on
        # in a cycle until the collector ran.
        gc.disable()
        try:
            a = AlphaEndpoint("a", EndpointConfig(chain_length=128), seed=5)
            b = AlphaEndpoint("b", EndpointConfig(chain_length=128), seed=6)
            establish_static(a, b)
            a.paths.register("b", "via-r1", ("r1",))
            a.paths.register("b", "via-r2", ("r2",))
            refs = [weakref.ref(a), weakref.ref(b)]
            del a, b
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_observed_endpoints_are_freed_without_the_cycle_collector(self):
        # The registry reads the endpoints' and sessions' counters: it
        # holds their blocks, never the engines, and folds an engine's
        # counts in when it goes.
        gc.disable()
        try:
            obs = Observability()
            config = EndpointConfig(chain_length=128)
            a = AlphaEndpoint("a", config, seed=5, obs=obs)
            b = AlphaEndpoint("b", config, seed=6, obs=obs)
            establish_static(a, b)
            a.send("b", b"counted")
            for dest, data in a.poll(0.0).replies:
                for _, reply in b.on_packet(data, "a", 0.0).replies:
                    for _, s2 in a.on_packet(reply, "b", 0.0).replies:
                        b.on_packet(s2, "a", 0.0)
            refs = [weakref.ref(a), weakref.ref(b)]
            del a, b
            assert [ref() for ref in refs] == [None, None]
            done = obs.registry.counter("signer.exchanges_done")
            assert done.value == 1
            assert all(not c._reads for c in obs.registry._counters.values())
        finally:
            gc.enable()


class TestMmoEndToEnd:
    def test_full_stack_with_sensor_hash(self):
        """Entire protocol (handshake included) on 16-byte MMO digests."""
        net = Network.chain(3, seed=6)
        cfg = EndpointConfig(
            hash_name="mmo",
            chain_length=128,
            mode=Mode.CUMULATIVE,
            batch_size=3,
            reliability=ReliabilityMode.RELIABLE,
        )
        s = EndpointAdapter(AlphaEndpoint("s", cfg, seed=1), net.nodes["s"])
        v = EndpointAdapter(AlphaEndpoint("v", cfg, seed=2), net.nodes["v"])
        relays = [
            RelayAdapter(net.nodes[f"r{i}"], hash_fn=get_hash("mmo"))
            for i in (1, 2)
        ]
        s.connect("v")
        net.simulator.run(until=2.0)
        assert s.established("v")
        for i in range(6):
            s.send("v", b"sensor-%d" % i)
        net.simulator.run(until=30.0)
        assert sorted(m for _, m in v.received) == sorted(
            b"sensor-%d" % i for i in range(6)
        )
        assert all(r.delivered for _, r in s.reports)
        for relay in relays:
            assert relay.engine.stats.get("s2-ok", 0) == 6

    def test_truncated_hash_end_to_end(self):
        """8-byte truncated SHA-1 (constrained-link variant) still works."""
        net = Network.chain(2, seed=7)
        cfg = EndpointConfig(hash_name="sha1-8", chain_length=64)
        s = EndpointAdapter(AlphaEndpoint("s", cfg, seed=1), net.nodes["s"])
        v = EndpointAdapter(AlphaEndpoint("v", cfg, seed=2), net.nodes["v"])
        RelayAdapter(net.nodes["r1"], hash_fn=get_hash("sha1-8"))
        s.connect("v")
        net.simulator.run(until=1.0)
        s.send("v", b"tiny-digests")
        net.simulator.run(until=5.0)
        assert [m for _, m in v.received] == [b"tiny-digests"]


class TestMessageBoundaries:
    def test_largest_allowed_message(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng)
        big = b"\xAB" * 0xFFFF
        signer.submit(big)
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        a1 = decode_packet(verifier.handle_s1(s1, 0.0), 20)
        for raw in signer.handle_a1(a1, 0.0):
            verifier.handle_s2(decode_packet(raw, 20), 0.0)
        assert verifier.drain_delivered()[0].message == big

    def test_one_byte_message(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng)
        signer.submit(b"\x00")
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        a1 = decode_packet(verifier.handle_s1(s1, 0.0), 20)
        for raw in signer.handle_a1(a1, 0.0):
            verifier.handle_s2(decode_packet(raw, 20), 0.0)
        assert verifier.drain_delivered()[0].message == b"\x00"
