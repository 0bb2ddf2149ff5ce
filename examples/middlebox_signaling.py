#!/usr/bin/env python3
"""Secure middlebox signaling (paper abstract + Section 4.1.1).

A mobile host signals a locator change to its peer over a path with two
middleboxes. The middleboxes hold no keys, yet:

1. they *verify* the signaling in transit and update their own locator
   bindings (secure data extraction by relays), and
2. they *drop* a forged locator update injected by an attacker.

    python examples/middlebox_signaling.py
"""

from repro.apps.signaling import HipHost, Middlebox, SignalingMessage, UPDATE_LOCATOR
from repro.attacks import PacketForger
from repro.netsim import Network
from repro.netsim.link import LinkConfig


def main() -> None:
    net = Network.chain(3, config=LinkConfig(latency_s=0.003),
                        names=["mobile", "mb1", "mb2", "server"])
    # netsim chain names: mobile -- mb1 -- mb2 -- server
    mobile = HipHost(net.nodes["mobile"], seed=21)
    server = HipHost(net.nodes["server"], seed=22)
    boxes = {
        "mb1": Middlebox(net.nodes["mb1"]),
        "mb2": Middlebox(net.nodes["mb2"]),
    }

    mobile.associate("server")
    net.simulator.run(until=1.0)
    print(f"HIP-like association established: {mobile.established('server')}")

    # The mobile host moves and signals its new locator.
    mobile.update_locator("server", "2001:db8:beef::1")
    net.simulator.run(until=2.0)

    inbox = server.drain_inbox()
    print(f"server received: {inbox[0][1].kind} -> {inbox[0][1].params}")
    for name, box in boxes.items():
        box.process()
        print(f"middlebox {name}: locator binding for 'mobile' = "
              f"{box.locator_bindings.get('mobile')} (verified in transit, no keys held)")

    # An off-path attacker tries to forge a locator update to hijack the
    # flow. The forged S2 has no matching S1/A1 exchange and a bogus
    # chain element: the first middlebox kills it.
    assoc_id = mobile.endpoint.association("server").assoc_id
    forger = PacketForger(net.nodes["mobile"])
    forged_update = SignalingMessage(UPDATE_LOCATOR, {"locator": "6.6.6.6"}).encode()
    for seq in range(50, 55):
        forger.forge_s2(assoc_id, "server", "mobile", seq, forged_update)
    net.simulator.run(until=3.0)

    for name, box in boxes.items():
        box.process()
    mb1_stats = boxes["mb1"].engine.stats
    print("\nafter injecting 5 forged locator updates:")
    print(f"  mb1 dropped {mb1_stats.get('dropped', 0)} packets "
          f"({mb1_stats.get('s2-unknown-exchange', 0)} unknown-exchange S2s)")
    print(f"  mb2 saw {boxes['mb2'].engine.stats.get('dropped', 0)} drops "
          f"(the flood never got past the first middlebox)")
    print(f"  bindings unchanged: mobile -> "
          f"{boxes['mb1'].locator_bindings.get('mobile')}")
    leaked = [m for m in server.drain_inbox() if m[1].params.get("locator") == "6.6.6.6"]
    print(f"  forged updates reaching the server: {len(leaked)}")


if __name__ == "__main__":
    main()
