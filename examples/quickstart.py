#!/usr/bin/env python3
"""Quickstart: ALPHA-protected messaging over a simulated 4-hop path.

Reproduces the paper's Figure 1 scenario: a signer ``s``, a verifier
``v``, and three relays that verify every packet in transit. Run with:

    python examples/quickstart.py
"""

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.netsim import Network
from repro.netsim.link import LinkConfig
from repro.transports.netsim import EndpointAdapter, RelayAdapter


def main() -> None:
    # A linear path s -- r1 -- r2 -- r3 -- v with 5 ms per-hop latency.
    net = Network.chain(4, config=LinkConfig(latency_s=0.005))

    config = EndpointConfig(
        mode=Mode.CUMULATIVE,        # ALPHA-C: several messages per S1
        reliability=ReliabilityMode.RELIABLE,
        batch_size=4,
        chain_length=1024,
    )
    signer = EndpointAdapter(AlphaEndpoint("s", config, seed=1), net.nodes["s"])
    verifier = EndpointAdapter(AlphaEndpoint("v", config, seed=2), net.nodes["v"])
    relays = [RelayAdapter(net.nodes[f"r{i}"]) for i in (1, 2, 3)]

    # 1. Dynamic bootstrap: the HS1/HS2 anchor exchange. The relays
    #    observe it and learn the four chain anchors.
    signer.connect("v")
    net.simulator.run(until=1.0)
    print(f"handshake complete at t={net.simulator.now * 1000:.1f} ms "
          f"(established={signer.established('v')})")

    # 2. Send integrity-protected messages.
    messages = [f"sensor-reading-{i}".encode() for i in range(8)]
    for message in messages:
        signer.send("v", message)
    net.simulator.run(until=10.0)

    # 3. What arrived, and what the relays did.
    print(f"\nverifier received {len(verifier.received)} authenticated messages:")
    for peer, message in verifier.received:
        print(f"  from {peer}: {message.decode()}")

    delivered = [r for _, r in signer.reports if r.delivered]
    print(f"\nsigner got delivery confirmation for {len(delivered)}/8 messages "
          f"(pre-ack based, paper Section 3.2.2)")

    print("\nper-relay verification statistics:")
    for i, relay in enumerate(relays, start=1):
        stats = relay.engine.stats
        print(f"  r{i}: forwarded={stats.get('forwarded', 0)} "
              f"s1-ok={stats.get('s1-ok', 0)} s2-ok={stats.get('s2-ok', 0)} "
              f"a2-ok={stats.get('a2-ok', 0)} dropped={stats.get('dropped', 0)}")

    ops = signer.endpoint.hash_fn.counter
    print(f"\nsigner-side crypto: {ops.hash_ops} fixed hashes, "
          f"{ops.mac_ops} MACs, 0 public-key ops after the handshake — "
          f"that is the point of ALPHA.")


if __name__ == "__main__":
    main()
