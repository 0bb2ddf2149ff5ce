#!/usr/bin/env python3
"""WSN scenario: ALPHA-C streaming between sensor nodes (paper §4.1.3).

Models the AquisGrain-class deployment: the MMO-AES hash (16-byte
digests), 100-byte packet payloads, static pre-deployment bootstrapping
(a base station installs pairwise anchors — no handshake packets), slow
802.15.4-class links, and an energy budget read off the byte counters.

    python examples/wsn_streaming.py
"""

from repro import analysis
from repro.core.bootstrap import establish_static, provision_relays
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.crypto.hashes import get_hash
from repro.devices import get_profile
from repro.devices.energy import SENSOR_ENERGY
from repro.netsim import Network, TraceCollector
from repro.netsim.link import SENSOR_LINK
from repro.transports.netsim import EndpointAdapter, RelayAdapter


def main() -> None:
    hops = 5
    net = Network.chain(hops, config=SENSOR_LINK)

    # Sensor-grade protocol parameters: MMO hash, small chains, ALPHA-C
    # with 5 pre-signatures per S1 (the paper's WSN example).
    config = EndpointConfig(
        hash_name="mmo",
        chain_length=512,
        mode=Mode.CUMULATIVE,
        batch_size=5,
        reliability=ReliabilityMode.UNRELIABLE,
        retransmit_timeout_s=1.0,
    )
    source = EndpointAdapter(AlphaEndpoint("s", config, seed=10), net.nodes["s"])
    sink = EndpointAdapter(AlphaEndpoint("v", config, seed=11), net.nodes["v"])
    relays = [
        RelayAdapter(net.nodes[f"r{i}"], hash_fn=get_hash("mmo"))
        for i in range(1, hops)
    ]

    # Static bootstrap: base station provisions end hosts AND relays.
    assoc_id = establish_static(source.endpoint, sink.endpoint)
    provision_relays(
        [r.engine for r in relays], source.endpoint, sink.endpoint, assoc_id
    )
    print(f"statically provisioned association {assoc_id:#x} on {hops - 1} relays")

    # Stream 60 sensor readings of ~65 B (100 B payload minus ALPHA
    # overhead, per the paper's arithmetic).
    est = analysis.wsn_estimates(get_profile("cc2430"))
    reading_size = int(100 - est.per_packet_overhead_bytes)
    readings = [bytes([i % 256]) * reading_size for i in range(60)]
    for reading in readings:
        source.send("v", reading)
    net.simulator.run(until=120.0)

    print(f"delivered {len(sink.received)}/60 readings of {reading_size} B "
          f"over {hops} hops at t={net.simulator.now:.1f} s (sim)")

    summary = TraceCollector.network_summary(net)
    total_bytes = summary["total_bytes"]
    payload_bytes = sum(len(m) for _, m in sink.received)
    print(f"radio bytes on air: {total_bytes} for {payload_bytes} payload bytes "
          f"({total_bytes / payload_bytes:.2f} transferred bytes per signed byte, "
          f"cf. Figure 6)")

    # Energy on the first relay: RX + TX of everything it forwarded,
    # plus CPU for its verification work mapped through the CC2430 model.
    relay_node = net.nodes["r1"]
    relay_engine = relays[0].engine
    cc2430 = get_profile("cc2430")
    counter = relay_engine._hash.counter
    cpu_seconds = (
        counter.hash_ops * cc2430.hash_time(16)
        + counter.mac_bytes * 0  # MAC cost dominated by per-block below
        + counter.mac_ops * cc2430.mac_time(84)
    )
    forwarded_bytes = sum(
        link.bytes_sent for link in net.links if relay_node in link.endpoints
    )
    energy = SENSOR_ENERGY.total(forwarded_bytes // 2, forwarded_bytes // 2, cpu_seconds)
    print(f"relay r1: {counter.hash_ops} hashes + {counter.mac_ops} MACs "
          f"-> {cpu_seconds * 1e3:.1f} ms CPU (CC2430 model), "
          f"~{energy * 1e3:.2f} mJ total energy")

    print(f"\nanalytical throughput bound for this platform: "
          f"{est.signed_payload_bps / 1e3:.0f} kbit/s verifiable at a relay "
          f"({est.packets_per_second:.0f} S2/s) — paper reports 244 kbit/s / 460 S2/s")


if __name__ == "__main__":
    main()
