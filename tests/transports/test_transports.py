"""Transports: in-memory pipe and UDP over loopback."""

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.relay import RelayEngine
from repro.crypto.hashes import get_hash
from repro.obs import Observability
from repro.transports import MemoryNetwork, UdpTransport
from repro.transports.udp import MAX_DATAGRAMS_PER_TURN, STATS_COUNTERS


class TestMemoryNetwork:
    def make(self, config=None, **net_kwargs):
        config = config or EndpointConfig(chain_length=256)
        net = MemoryNetwork(**net_kwargs)
        net.add_endpoint(AlphaEndpoint("a", config, seed=1))
        net.add_endpoint(AlphaEndpoint("b", config, seed=2))
        return net

    def test_connect_and_send(self):
        net = self.make()
        net.connect("a", "b")
        assert net._endpoints["a"].association("b").established
        net.send("a", "b", b"hello")
        assert net.received_by("b") == [b"hello"]

    def test_duplex(self):
        net = self.make()
        net.connect("a", "b")
        net.send("a", "b", b"ping")
        net.send("b", "a", b"pong")
        assert net.received_by("b") == [b"ping"]
        assert net.received_by("a") == [b"pong"]

    def test_relays_on_path(self):
        net = self.make()
        relay = RelayEngine(get_hash("sha1"))
        net.add_relays("a", "b", [relay])
        net.connect("a", "b")
        net.send("a", "b", b"watched")
        assert net.received_by("b") == [b"watched"]
        assert relay.stats.get("s2-ok", 0) == 1

    def test_scripted_loss_recovered_by_timers(self):
        dropped = {"count": 0}

        def drop_first_s1(src, dst, payload):
            # Drop the first two data-plane packets outright.
            if src == "a" and dropped["count"] < 2 and len(payload) > 100:
                dropped["count"] += 1
                return True
            return False

        config = EndpointConfig(
            chain_length=256,
            reliability=ReliabilityMode.RELIABLE,
            retransmit_timeout_s=0.2,
        )
        net = self.make(config=config, drop_filter=drop_first_s1)
        net.connect("a", "b")
        net.send("a", "b", b"x" * 200)
        # Retransmission timers fire as the clock advances.
        for _ in range(10):
            net.advance(0.3)
        assert net.received_by("b") == [b"x" * 200]

    def test_duplicate_endpoint_rejected(self):
        net = self.make()
        with pytest.raises(ValueError):
            net.add_endpoint(AlphaEndpoint("a", seed=9))

    def test_time_monotonic(self):
        net = self.make()
        with pytest.raises(ValueError):
            net.advance(-1.0)


class TestUdpTransport:
    def make_pair(self, config=None):
        config = config or EndpointConfig(chain_length=256)
        ta = UdpTransport(AlphaEndpoint("a", config, seed=11))
        tb = UdpTransport(AlphaEndpoint("b", config, seed=12))
        ta.register_peer("b", tb.address)
        tb.register_peer("a", ta.address)
        return ta, tb

    def pump_both(self, ta, tb, predicate, timeout_s=5.0):
        import time

        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            ta.pump(0.01)
            tb.pump(0.01)
            if predicate():
                return True
        return predicate()

    def test_handshake_over_loopback(self):
        ta, tb = self.make_pair()
        try:
            ta.connect("b")
            ok = self.pump_both(
                ta, tb, lambda: ta.endpoint.association("b").established
            )
            assert ok
            assert tb.endpoint.association("a").established
        finally:
            ta.close()
            tb.close()

    def test_protected_messages_over_loopback(self):
        ta, tb = self.make_pair()
        try:
            ta.connect("b")
            assert self.pump_both(
                ta, tb, lambda: ta.endpoint.association("b").established
            )
            for i in range(5):
                ta.send("b", b"datagram-%d" % i)
            assert self.pump_both(ta, tb, lambda: len(tb.received) == 5)
            assert sorted(m for _, m in tb.received) == sorted(
                b"datagram-%d" % i for i in range(5)
            )
        finally:
            ta.close()
            tb.close()

    def test_reliable_mode_over_loopback(self):
        config = EndpointConfig(
            chain_length=256,
            mode=Mode.CUMULATIVE,
            batch_size=3,
            reliability=ReliabilityMode.RELIABLE,
            retransmit_timeout_s=0.1,
        )
        ta, tb = self.make_pair(config)
        try:
            ta.connect("b")
            assert self.pump_both(
                ta, tb, lambda: ta.endpoint.association("b").established
            )
            for i in range(3):
                ta.send("b", b"tracked-%d" % i)
            assert self.pump_both(ta, tb, lambda: len(ta.reports) == 3)
            assert all(report.delivered for _, report in ta.reports)
        finally:
            ta.close()
            tb.close()

    def test_unknown_sender_ignored(self):
        import socket

        ta, _tb = self.make_pair()
        try:
            stranger = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            stranger.sendto(b"junk from nowhere", ta.address)
            ta.pump(0.1)
            assert ta.received == []
            stranger.close()
        finally:
            ta.close()
            _tb.close()

    def test_locator_update_rebinds_peer(self):
        # The HIP story: the peer moves; the directory is updated and
        # traffic continues on the same association.
        ta, tb = self.make_pair()
        try:
            ta.connect("b")
            assert self.pump_both(
                ta, tb, lambda: ta.endpoint.association("b").established
            )
            # b "moves": new socket, same endpoint state.
            tc = UdpTransport(tb.endpoint)
            tc.register_peer("a", ta.address)
            ta.register_peer("b", tc.address)
            ta.send("b", b"after the move")
            assert self.pump_both(ta, tc, lambda: len(tc.received) == 1)
            assert tc.received[0][1] == b"after the move"
            tc.close()
        finally:
            ta.close()
            tb.close()

    def test_closed_transport_refuses_pump(self):
        ta, tb = self.make_pair()
        ta.close()
        tb.close()
        with pytest.raises(RuntimeError):
            ta.pump()

    def test_unregistered_peer_connect_fails(self):
        ta = UdpTransport(AlphaEndpoint("solo", seed=5))
        try:
            with pytest.raises(LookupError):
                ta.connect("ghost")
        finally:
            ta.close()


class TestMemoryNetworkRelayDrops:
    def test_dropped_by_relay_counter(self):
        from repro.core.relay import RelayConfig

        net = MemoryNetwork()
        net.add_endpoint(AlphaEndpoint("a", EndpointConfig(chain_length=128), seed=1))
        net.add_endpoint(AlphaEndpoint("b", EndpointConfig(chain_length=128), seed=2))
        # A strict relay that never learned this association's anchors
        # (it was not present for the handshake) blocks everything.
        blind = RelayEngine(get_hash("sha1"), RelayConfig(forward_unknown=False))
        net.connect("a", "b")
        net.add_relays("a", "b", [blind])  # installed after the handshake
        net.send("a", "b", b"blocked")
        assert net.received_by("b") == []
        assert net.dropped_by_relay > 0

    def test_relay_installed_before_handshake_verifies(self):
        net = MemoryNetwork()
        net.add_endpoint(AlphaEndpoint("a", EndpointConfig(chain_length=128), seed=3))
        net.add_endpoint(AlphaEndpoint("b", EndpointConfig(chain_length=128), seed=4))
        relay = RelayEngine(get_hash("sha1"))
        net.add_relays("a", "b", [relay])
        net.connect("a", "b")
        net.send("a", "b", b"fine")
        assert net.received_by("b") == [b"fine"]
        assert net.dropped_by_relay == 0


class TestUdpMalformedDatagrams:
    def make_pair(self, config=None):
        return TestUdpTransport.make_pair(self, config)

    def pump_both(self, ta, tb, predicate, timeout_s=5.0):
        return TestUdpTransport.pump_both(self, ta, tb, predicate, timeout_s)

    def test_garbage_from_known_peer_does_not_kill_the_pump(self):
        ta, tb = self.make_pair()
        try:
            ta.connect("b")
            assert self.pump_both(
                ta, tb, lambda: ta.endpoint.association("b").established
            )
            # Garbage from the *registered* peer address reaches the
            # engine (unknown senders are filtered earlier).
            for junk in (b"", b"\x00", b"\xff" * 200, b"A" * 65_000):
                tb._socket.sendto(junk, ta.address)
            ta.pump(0.2)
            # The transport is still alive and real traffic still flows.
            ta.send("b", b"after-the-noise")
            assert self.pump_both(ta, tb, lambda: len(tb.received) == 1)
            assert tb.received == [("a", b"after-the-noise")]
        finally:
            ta.close()
            tb.close()

    def test_parser_escape_is_counted_not_fatal(self):
        # The endpoint swallows clean PacketErrors itself; the pump's
        # guard exists for anything that escapes deeper in the stack.
        ta, tb = self.make_pair()
        try:
            ta.connect("b")
            assert self.pump_both(
                ta, tb, lambda: ta.endpoint.association("b").established
            )
            real_on_packet = ta.endpoint.on_packet
            ta.endpoint.on_packet = lambda *a, **kw: (_ for _ in ()).throw(
                RuntimeError("parse bug")
            )
            tb._socket.sendto(b"trigger", ta.address)
            ta.pump(0.2)
            assert ta.stats.malformed_drops == 1
            assert not ta.closed
            ta.endpoint.on_packet = real_on_packet
            # Counter surfaces through the merged stats view too.
            assert ta.resilience_stats().malformed_drops == 1
            ta.send("b", b"recovered")
            assert self.pump_both(ta, tb, lambda: len(tb.received) == 1)
        finally:
            ta.close()
            tb.close()


class TestUdpDropAccounting:
    """The silent-loss fixes: every dropped datagram is countable."""

    def make_pair(self, config=None):
        return TestUdpTransport.make_pair(self, config)

    def pump_both(self, ta, tb, predicate, timeout_s=5.0):
        return TestUdpTransport.pump_both(self, ta, tb, predicate, timeout_s)

    def test_unknown_source_drop_is_counted(self):
        import socket

        ta, tb = self.make_pair()
        try:
            stranger = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for _ in range(3):
                stranger.sendto(b"junk from nowhere", ta.address)
            ta.run_until(lambda: ta.stats.unknown_source_drops == 3,
                         timeout_s=2.0)
            assert ta.stats.unknown_source_drops == 3
            assert ta.resilience_stats().unknown_source_drops == 3
            assert ta.received == []
            stranger.close()
        finally:
            ta.close()
            tb.close()

    def test_registry_reads_the_drop_counters(self):
        """Observed, each drop kind is counted once, in ``stats``, and
        the registry's ``udp.*`` counters read it."""
        import socket

        obs = Observability()
        ta = UdpTransport(AlphaEndpoint("a", seed=1, obs=obs))
        stranger = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        stranger.bind(("127.0.0.1", 0))
        try:
            stranger.sendto(b"junk from nowhere", ta.address)
            assert ta.run_until(
                lambda: ta.stats.unknown_source_drops == 1, timeout_s=2.0
            )
            ta.register_peer("b", stranger.getsockname())
            ta.endpoint.on_packet = lambda *a, **kw: (_ for _ in ()).throw(
                RuntimeError("parse bug")
            )
            stranger.sendto(b"trigger", ta.address)
            assert ta.run_until(lambda: ta.stats.malformed_drops == 1, timeout_s=2.0)
            ta._transmit("nowhere", b"payload")
            snap = obs.registry.snapshot()
            for name, field in STATS_COUNTERS.items():
                assert snap[name] == getattr(ta.stats, field) == 1, name
        finally:
            stranger.close()
            ta.close()

    def test_unroutable_transmit_surfaces_counter_and_failure(self):
        ta, tb = self.make_pair()
        try:
            ta.connect("b")
            assert self.pump_both(
                ta, tb, lambda: ta.endpoint.association("b").established
            )
            # The peer's address vanishes (directory wiped before a
            # locator update lands): sends must not black-hole silently.
            ta._peer_addresses.pop("b")
            ta.send("b", b"into the void")
            ta.pump(0.05)
            assert ta.stats.unroutable_drops >= 1
            peer, failure = ta.failures[-1]
            assert peer == "b"
            assert failure.reason == "no-peer-address"
            assert failure.messages  # the undeliverable payload rides along
        finally:
            ta.close()
            tb.close()


class TestUdpFloodBudget:
    """A datagram flood must not starve the endpoint's timers."""

    def test_per_turn_budget_bounds_the_drain(self):
        from repro.core.endpoint import AlphaEndpoint

        victim = UdpTransport(
            AlphaEndpoint("victim", EndpointConfig(chain_length=64), seed=31)
        )
        import socket

        try:
            flooder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for _ in range(200):
                flooder.sendto(b"flood", victim.address)
            # One turn reads at most the budget, even with 200 queued.
            import time as _time

            deadline = _time.monotonic() + 2.0
            while _time.monotonic() < deadline:
                if victim.pump(0.05) > 0:
                    break
            assert 0 < victim.stats.unknown_source_drops <= MAX_DATAGRAMS_PER_TURN
            # Subsequent turns drain the rest; nothing is lost, only
            # deferred to later turns.
            victim.run_until(
                lambda: victim.stats.unknown_source_drops == 200,
                timeout_s=5.0,
            )
            assert victim.stats.unknown_source_drops == 200
            flooder.close()
        finally:
            victim.close()

    def test_flooded_socket_does_not_starve_retransmit_timers(self):
        import socket

        config = EndpointConfig(
            chain_length=64, retransmit_timeout_s=0.05, max_retries=3
        )
        ta = UdpTransport(AlphaEndpoint("a", config, seed=33))
        try:
            # Handshake toward a peer that never answers, while a
            # stranger floods the socket: HS1 retries must still burn
            # down and fail terminally (timer work kept its share of
            # every turn).
            sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sink.bind(("127.0.0.1", 0))
            ta.register_peer("b", sink.getsockname())
            ta.connect("b")
            flooder = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

            def flood_and_check():
                # More than one turn's budget, so the budget binds.
                for _ in range(2 * MAX_DATAGRAMS_PER_TURN):
                    flooder.sendto(b"noise", ta.address)
                return any(
                    f.reason == "handshake-timeout" for _p, f in ta.failures
                )

            assert ta.run_until(flood_and_check, timeout_s=5.0)
            assert ta.stats.unknown_source_drops > 0
            flooder.close()
            sink.close()
        finally:
            ta.close()
