"""Link failure, rerouting, and ALPHA's path-stability requirement."""

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.relay import RelayConfig
from repro.netsim import Network
from repro.netsim.link import LinkConfig
from repro.netsim.packet import Frame
from repro.transports.netsim import EndpointAdapter, RelayAdapter


def diamond():
    """s - r1 - v with a backup path s - r2 - v (higher latency)."""
    net = Network(seed=1)
    for name in ("s", "r1", "r2", "v"):
        net.add_node(name)
    net.connect("s", "r1", LinkConfig(latency_s=0.002))
    net.connect("r1", "v", LinkConfig(latency_s=0.002))
    net.connect("s", "r2", LinkConfig(latency_s=0.010))
    net.connect("r2", "v", LinkConfig(latency_s=0.010))
    net.compute_routes()
    return net


class TestLinkFailure:
    def test_failed_link_drops_silently(self):
        net = Network.chain(2)
        got = []
        net.nodes["v"].app_handler = got.append
        net.fail_link("s", "r1", reroute=False)
        with pytest.raises(LookupError):
            net.fail_link("s", "r1")  # already removed from the graph
        net.nodes["s"].routes and net.nodes["s"].send(Frame("s", "v", b"x"))
        net.simulator.run()
        assert got == []

    def test_reroute_switches_path(self):
        net = diamond()
        assert net.path("s", "v") == ["s", "r1", "v"]
        net.fail_link("s", "r1")
        assert net.path("s", "v") == ["s", "r2", "v"]
        got = []
        net.nodes["v"].app_handler = got.append
        net.nodes["s"].send(Frame("s", "v", b"via backup"))
        net.simulator.run()
        assert len(got) == 1
        assert net.nodes["r2"].frames_forwarded == 1

    def test_restore_link(self):
        net = diamond()
        net.fail_link("s", "r1")
        net.restore_link("s", "r1")
        assert net.path("s", "v") == ["s", "r1", "v"]

    def test_restore_unknown_link(self):
        net = diamond()
        with pytest.raises(LookupError):
            net.restore_link("s", "v")


class TestPathStability:
    def build(self, relay_config=None):
        net = diamond()
        cfg = EndpointConfig(chain_length=256, retransmit_timeout_s=0.2,
                             max_retries=20)
        s = EndpointAdapter(AlphaEndpoint("s", cfg, seed=1), net.nodes["s"])
        v = EndpointAdapter(AlphaEndpoint("v", cfg, seed=2), net.nodes["v"])
        r1 = RelayAdapter(net.nodes["r1"], config=relay_config)
        r2 = RelayAdapter(net.nodes["r2"], config=relay_config)
        s.connect("v")
        net.simulator.run(until=1.0)
        assert s.established("v")
        return net, s, v, r1, r2

    def test_reroute_with_permissive_relays_keeps_e2e(self):
        """After a route change the new relay has no anchors: with the
        default forward_unknown policy it passes traffic unverified and
        end-to-end integrity still holds (incremental deployment)."""
        net, s, v, r1, r2 = self.build()
        net.fail_link("s", "r1")
        s.send("v", b"over the new path")
        net.simulator.run(until=10.0)
        assert [m for _, m in v.received] == [b"over the new path"]
        assert r2.engine.stats.get("unknown-association", 0) > 0
        assert r2.engine.stats.get("s2-ok", 0) == 0  # cannot verify

    def test_reroute_with_strict_relays_requires_rehandshake(self):
        """A security-first relay (forward_unknown=False) blocks the
        unknown association; a fresh handshake over the new path
        provisions it and traffic resumes verified."""
        strict = RelayConfig(forward_unknown=False)
        net, s, v, r1, r2 = self.build(relay_config=strict)
        net.fail_link("s", "r1")
        s.send("v", b"blocked")
        net.simulator.run(until=10.0)
        assert v.received == []  # r2 refused the unknown association
        # Re-bootstrap over the new path: new endpoints/association.
        cfg = EndpointConfig(chain_length=256)
        s2 = EndpointAdapter(AlphaEndpoint("s2", cfg, seed=7),
                             net.add_node("s2"))
        net.connect("s2", "r2", LinkConfig(latency_s=0.002))
        net.compute_routes()
        v2 = EndpointAdapter(AlphaEndpoint("v2", cfg, seed=8),
                             net.add_node("v2"))
        net.connect("v2", "r2", LinkConfig(latency_s=0.002))
        net.compute_routes()
        s2.connect("v2")
        net.simulator.run(until=12.0)
        s2.send("v2", b"verified again")
        net.simulator.run(until=20.0)
        assert [m for _, m in v2.received] == [b"verified again"]
        assert r2.engine.stats.get("s2-ok", 0) == 1

    def test_exchange_in_flight_during_reroute_recovers(self):
        """S1 crosses the old path, the A1 returns over the new one:
        the endpoints still complete (end-to-end state is path-free)."""
        net, s, v, r1, r2 = self.build()
        s.send("v", b"mid-flight")
        # Fail the primary path immediately; retransmissions take the
        # backup path.
        net.fail_link("r1", "v")
        net.simulator.run(until=15.0)
        assert [m for _, m in v.received] == [b"mid-flight"]
