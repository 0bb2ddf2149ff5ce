"""Attack scenarios over the simulator: every attack from the paper's
threat model, asserted to be stopped where ALPHA promises to stop it."""

import pytest

from repro.attacks import (
    PacketForger,
    ReplayAttacker,
    S1Flooder,
    TamperingRelay,
    Wiretap,
)
from repro.attacks.reformatting import demonstrate
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode
from repro.core.relay import RelayConfig
from repro.netsim import Network
from repro.transports.netsim import EndpointAdapter, RelayAdapter


def protected_path(hops=4, config=None, relay_config=None, seed=0):
    net = Network.chain(hops, seed=seed)
    cfg = config or EndpointConfig(chain_length=512)
    s = EndpointAdapter(AlphaEndpoint("s", cfg, seed=f"{seed}s"), net.nodes["s"])
    v = EndpointAdapter(AlphaEndpoint("v", cfg, seed=f"{seed}v"), net.nodes["v"])
    relays = [
        RelayAdapter(net.nodes[f"r{i}"], config=relay_config)
        for i in range(1, hops)
    ]
    s.connect("v")
    net.simulator.run(until=1.0)
    assert s.established("v")
    return net, s, v, relays


class TestForgery:
    def test_forged_packets_dropped_at_first_relay(self):
        net, s, v, relays = protected_path()
        # The attacker sits just behind r1 — model as injection at s's
        # node with spoofed source (an outsider on the first link).
        assoc_id = s.endpoint.association("v").assoc_id
        forger = PacketForger(net.nodes["s"])
        for seq in range(1, 6):
            forger.forge_s1(assoc_id, "v", "s", seq)
            forger.forge_s2(assoc_id, "v", "s", seq, b"evil")
        net.simulator.run(until=5.0)
        assert v.received == []
        first_relay = relays[0].engine
        assert first_relay.stats.get("s1-bad-chain-element", 0) == 5
        assert first_relay.stats.get("dropped", 0) == 10
        # Deeper relays never saw the forgeries.
        assert relays[1].engine.stats.get("dropped", 0) == 0

    def test_genuine_traffic_unaffected_by_forgery_noise(self):
        net, s, v, relays = protected_path()
        assoc_id = s.endpoint.association("v").assoc_id
        forger = PacketForger(net.nodes["s"])
        for seq in range(10, 20):
            forger.forge_s1(assoc_id, "v", "s", seq)
        s.send("v", b"legit")
        net.simulator.run(until=10.0)
        assert [m for _, m in v.received] == [b"legit"]


class TestInsiderTampering:
    def test_tampered_s2_dropped_by_next_honest_relay(self):
        # r2 is a compromised pure forwarder (no honest engine there);
        # r1 and r3 run honest relay engines.
        net = Network.chain(4, seed=8)
        cfg = EndpointConfig(chain_length=512)
        s = EndpointAdapter(AlphaEndpoint("s", cfg, seed="8s"), net.nodes["s"])
        v = EndpointAdapter(AlphaEndpoint("v", cfg, seed="8v"), net.nodes["v"])
        RelayAdapter(net.nodes["r1"])
        r3 = RelayAdapter(net.nodes["r3"])
        tamperer = TamperingRelay(net.nodes["r2"])
        s.connect("v")
        net.simulator.run(until=1.0)
        s.send("v", b"important")
        net.simulator.run(until=10.0)
        assert tamperer.tampered >= 1
        # r3 (honest, downstream of the insider) dropped the mangled S2.
        assert r3.engine.stats.get("s2-bad-payload", 0) >= 1
        assert v.received == []

    def test_tampering_detected_end_to_end_without_relays(self):
        net = Network.chain(2, seed=4)
        cfg = EndpointConfig(chain_length=256)
        s = EndpointAdapter(AlphaEndpoint("s", cfg, seed=1), net.nodes["s"])
        v = EndpointAdapter(AlphaEndpoint("v", cfg, seed=2), net.nodes["v"])
        s.connect("v")
        net.simulator.run(until=1.0)
        TamperingRelay(net.nodes["r1"])  # no honest relay in between
        s.send("v", b"data")
        net.simulator.run(until=10.0)
        # The verifier itself rejects: end-to-end integrity holds.
        assert v.received == []
        assert v.endpoint.association("s").verifier.rejected_s2 >= 1


class TestReplay:
    def test_replayed_exchange_not_delivered_twice(self):
        net, s, v, relays = protected_path(hops=3)
        replayer = ReplayAttacker(net.nodes["r1"])
        s.send("v", b"once-only")
        net.simulator.run(until=5.0)
        assert [m for _, m in v.received] == [b"once-only"]
        replayer.replay_all()
        net.simulator.run(until=10.0)
        # Chain elements were already consumed: replays cannot produce a
        # second delivery.
        assert [m for _, m in v.received] == [b"once-only"]

    def test_replay_attack_on_verifier_state(self):
        # Replayed S1s draw the cached A1 (idempotent) but never a fresh
        # acknowledgment chain element.
        net, s, v, relays = protected_path(hops=3, seed=9)
        wiretap = Wiretap(net.nodes["r1"])
        s.send("v", b"m1")
        net.simulator.run(until=5.0)
        ack_chain_before = v.endpoint.association("s").chains.acknowledgment.remaining
        replayer_frames = [f for f in wiretap.frames]
        for frame in replayer_frames:
            copy = frame.copy()
            if copy.destination in net.nodes["r1"].routes:
                net.nodes["r1"].routes[copy.destination].transmit(copy, net.nodes["r1"])
        net.simulator.run(until=10.0)
        ack_chain_after = v.endpoint.association("s").chains.acknowledgment.remaining
        assert ack_chain_before == ack_chain_after


class TestFlooding:
    def test_s2_flood_blocked_without_a1(self):
        # The core flood defence: data packets do not propagate past the
        # first relay unless the receiver expressed willingness.
        net, s, v, relays = protected_path(hops=4)
        assoc_id = s.endpoint.association("v").assoc_id
        forger = PacketForger(net.nodes["s"])
        for seq in range(100, 120):
            forger.forge_s2(assoc_id, "v", "s", seq, b"flood" * 50)
        net.simulator.run(until=5.0)
        r1 = relays[0].engine
        assert r1.stats.get("dropped", 0) == 20
        assert relays[1].engine.stats.get("dropped", 0) == 0
        assert v.received == []

    def test_s1_flood_limited_by_allowance(self):
        relay_config = RelayConfig(initial_s1_allowance=256)
        net, s, v, relays = protected_path(relay_config=relay_config, seed=2)
        flooder = S1Flooder(net.nodes["s"], "v", rate_pps=200, payload_bytes=1200)
        flooder.start(duration_s=1.0)
        net.simulator.run(until=3.0)
        r1 = relays[0].engine
        # Oversized unsolicited S1s die at the first relay...
        assert r1.stats.get("s1-over-allowance", 0) > 0
        # ...and none of the flood reaches the victim as delivered data.
        assert v.received == []

    def test_flood_rate_accounting(self):
        net, s, v, _ = protected_path(seed=3)
        flooder = S1Flooder(net.nodes["s"], "v", rate_pps=100, payload_bytes=500)
        flooder.start(duration_s=0.5)
        net.simulator.run(until=2.0)
        assert 40 <= flooder.stats.frames_sent <= 60
        assert flooder.stats.bytes_sent > 0

    def test_flooder_validates_rate(self):
        net = Network.chain(2)
        with pytest.raises(ValueError):
            S1Flooder(net.nodes["s"], "v", rate_pps=0)


class TestReformatting:
    def test_role_binding_defeats_reformatting(self, sha1):
        outcome = demonstrate(sha1)
        assert outcome["unbound"].forgery_possible
        assert not outcome["bound"].forgery_possible

    def test_ablation_detail(self, sha1):
        outcome = demonstrate(sha1)
        # In the bound case the element still hashes correctly (it IS a
        # genuine chain element) — only the parity/role check kills it.
        assert outcome["bound"].s1_element_accepted
        assert not outcome["bound"].parity_check_passed


class TestWiretap:
    def test_wiretap_records_without_disturbing(self):
        net, s, v, relays = protected_path(hops=3, seed=5)
        wiretap = Wiretap(net.nodes["r1"])
        s.send("v", b"observed")
        net.simulator.run(until=5.0)
        assert [m for _, m in v.received] == [b"observed"]
        kinds = wiretap.payloads(kind="alpha")
        assert len(kinds) >= 3  # S1, A1, S2 at minimum

    def test_wiretap_stacks_with_relay_filter(self):
        net, s, v, relays = protected_path(hops=3, seed=6)
        wiretap = Wiretap(net.nodes["r1"])
        assoc_id = s.endpoint.association("v").assoc_id
        PacketForger(net.nodes["s"]).forge_s1(assoc_id, "v", "s", 7)
        net.simulator.run(until=2.0)
        # The wiretap saw the forgery, the stacked relay still dropped it.
        assert len(wiretap.frames) >= 1
        assert relays[0].engine.stats.get("s1-bad-chain-element", 0) == 1
