#!/usr/bin/env python3
"""Attack gauntlet: every attack from the paper's threat model against
one protected path, with a comparison against the baselines' blind spots.

    python examples/attack_gauntlet.py
"""

from repro.attacks import PacketForger, ReplayAttacker, S1Flooder, TamperingRelay
from repro.attacks.reformatting import demonstrate
from repro.baselines.hmac_e2e import HmacEndToEnd
from repro.baselines.lhap import LhapNode
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.relay import RelayConfig
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import get_hash
from repro.netsim import Network
from repro.transports.netsim import EndpointAdapter, RelayAdapter


def build_path(seed=0, relay_config=None):
    net = Network.chain(4, seed=seed)
    cfg = EndpointConfig(chain_length=512)
    s = EndpointAdapter(AlphaEndpoint("s", cfg, seed=f"{seed}s"), net.nodes["s"])
    v = EndpointAdapter(AlphaEndpoint("v", cfg, seed=f"{seed}v"), net.nodes["v"])
    relays = [RelayAdapter(net.nodes[f"r{i}"], config=relay_config) for i in (1, 2, 3)]
    s.connect("v")
    net.simulator.run(until=1.0)
    return net, s, v, relays


def scenario_forgery():
    net, s, v, relays = build_path(seed=1)
    assoc = s.endpoint.association("v").assoc_id
    forger = PacketForger(net.nodes["s"])
    for seq in range(1, 21):
        forger.forge_s1(assoc, "v", "s", seq)
        forger.forge_s2(assoc, "v", "s", seq, b"forged payload")
    net.simulator.run(until=5.0)
    r1 = relays[0].engine.stats
    print("[forgery]      40 forged packets injected")
    print(f"               dropped at first relay: {r1.get('dropped', 0)}; "
          f"delivered to victim: {len(v.received)}")


def scenario_insider_tampering():
    net = Network.chain(4, seed=2)
    cfg = EndpointConfig(chain_length=512)
    s = EndpointAdapter(AlphaEndpoint("s", cfg, seed="2s"), net.nodes["s"])
    v = EndpointAdapter(AlphaEndpoint("v", cfg, seed="2v"), net.nodes["v"])
    RelayAdapter(net.nodes["r1"])
    tamperer = TamperingRelay(net.nodes["r2"])  # compromised forwarder
    r3 = RelayAdapter(net.nodes["r3"])
    s.connect("v")
    net.simulator.run(until=1.0)
    s.send("v", b"account balance: 100")
    net.simulator.run(until=5.0)
    print("[tampering]    insider relay mutated the S2 in transit")
    print(f"               mutations: {tamperer.tampered}; next honest relay dropped: "
          f"{r3.engine.stats.get('s2-bad-payload', 0)}; victim received: {len(v.received)}")
    # The same attack against the baselines:
    sha1 = get_hash("sha1")
    print("               HMAC-E2E: receiver detects it, but NO relay could have "
          f"(relay_verifiable={HmacEndToEnd.relay_can_verify()})")
    rng = DRBG(9)
    a, b = LhapNode("a", sha1, rng.fork("a")), LhapNode("b", sha1, rng.fork("b"))
    b.learn_neighbour("a", a.chain.anchor)
    _, token = a.attach_token(b"account balance: 100")
    accepted = b.verify_from("a", b"account balance: 999999", token)
    print(f"               LHAP: insider-tampered payload accepted = {accepted} "
          "(tokens do not bind content)")


def scenario_replay():
    net, s, v, relays = build_path(seed=3)
    replayer = ReplayAttacker(net.nodes["r1"])
    s.send("v", b"pay 5 coins")
    net.simulator.run(until=5.0)
    before = len(v.received)
    replayer.replay_all()
    net.simulator.run(until=10.0)
    print("[replay]       full exchange captured and replayed")
    print(f"               deliveries before replay: {before}, after: {len(v.received)} "
          "(chain elements are single-use)")


def scenario_flooding():
    net, s, v, relays = build_path(
        seed=4, relay_config=RelayConfig(initial_s1_allowance=256)
    )
    flooder = S1Flooder(net.nodes["s"], "v", rate_pps=500, payload_bytes=1200)
    flooder.start(duration_s=1.0)
    net.simulator.run(until=3.0)
    r1, r2 = relays[0].engine.stats, relays[1].engine.stats
    print(f"[flooding]     {flooder.stats.frames_sent} oversized unsolicited S1/s "
          f"({flooder.stats.bytes_sent} B)")
    print(f"               first relay dropped {r1.get('s1-over-allowance', 0)} "
          f"over-allowance S1s; second relay drops: {r2.get('dropped', 0)}")


def scenario_reformatting():
    outcome = demonstrate(get_hash("sha1"))
    print("[reformatting] replaying a disclosed MAC-key element in the S1 role")
    print(f"               unbound chain (pre-ALPHA): forgery possible = "
          f"{outcome['unbound'].forgery_possible}")
    print(f"               ALPHA role-bound chain:    forgery possible = "
          f"{outcome['bound'].forgery_possible}")


def main():
    print("ALPHA attack gauntlet over a 4-hop protected path\n" + "=" * 60)
    scenario_forgery()
    scenario_insider_tampering()
    scenario_replay()
    scenario_flooding()
    scenario_reformatting()


if __name__ == "__main__":
    main()
