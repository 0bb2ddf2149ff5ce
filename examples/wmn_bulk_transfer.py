#!/usr/bin/env python3
"""WMN scenario: bulk transfer with ALPHA-M and adaptive mode switching
(paper Sections 3.3.2, 4.1.2).

A mesh client pushes a multi-kilobyte object across a grid of mesh
routers. The adaptive policy starts in base mode for the first chunk and
escalates to Merkle-tree pre-signatures as the queue builds, exactly the
"fine-grained adaptation to network bandwidth, buffer space, and
computational capabilities" the paper advertises.

    python examples/wmn_bulk_transfer.py
"""

import time

from repro.apps.streaming import AdaptivePolicy, StreamingSink, StreamingSource
from repro.core.adapter import EndpointAdapter, RelayAdapter
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core import analysis
from repro.crypto.drbg import DRBG
from repro.devices import get_profile
from repro.netsim import Network
from repro.netsim.link import MESH_LINK


def main() -> None:
    # A 4x3 mesh grid; traffic crosses from one corner to the other.
    net = Network.grid(4, 3, config=MESH_LINK)
    src_name, dst_name = "n0_0", "n3_2"

    config = EndpointConfig(chain_length=2048)
    src = EndpointAdapter(AlphaEndpoint(src_name, config, seed=5), net.nodes[src_name])
    dst = EndpointAdapter(AlphaEndpoint(dst_name, config, seed=6), net.nodes[dst_name])
    relays = {}
    for name, node in net.nodes.items():
        if name not in (src_name, dst_name):
            relays[name] = RelayAdapter(node)

    src.connect(dst_name)
    net.simulator.run(until=1.0)
    path = net.path(src_name, dst_name)
    print(f"route: {' -> '.join(path)} ({len(path) - 2} verifying relays on path)")

    # Push a 64 KiB object in 1 KiB chunks through the adaptive policy.
    policy = AdaptivePolicy(base_threshold=1, merkle_threshold=8, max_batch=32)
    source = StreamingSource(src, dst_name, chunk_size=1024, policy=policy)
    sink = StreamingSink(dst, src_name)
    payload = DRBG(b"mesh-object").random_bytes(64 * 1024)

    start = net.simulator.now
    source.submit(payload)
    signer = src.endpoint.association(dst_name).signer
    print(f"adaptive policy selected: mode={signer.config.mode.name} "
          f"batch={signer.config.batch_size} for a backlog of "
          f"{signer.queue_depth + signer.config.batch_size} chunks")

    wall = time.perf_counter()
    while net.simulator.now < 300.0 and sink.bytes_received < len(payload):
        net.simulator.run(until=net.simulator.now + 0.01)
        sink.pump()
    wall = time.perf_counter() - wall

    ok = sink.contiguous_prefix() == payload
    elapsed = net.simulator.now - start
    goodput = len(payload) * 8 / elapsed
    print(f"transfer {'complete' if ok else 'INCOMPLETE'}: {len(payload)} B in "
          f"{elapsed:.2f} s simulated -> {goodput / 1e6:.2f} Mbit/s goodput "
          f"(simulated {elapsed:.1f}s in {wall:.1f}s wall)")

    # Compare against the paper's Table 6 CPU-bound estimates.
    rows = analysis.table6_rows(
        [get_profile("ar2315"), get_profile("geode-lx800")], leaves_list=(32,)
    )
    row = rows[0]
    print("\nCPU-bound relay verification ceiling for 32-leaf trees (Table 6):")
    print(f"  AR2315 (La Fonera):   {row.throughput_bps['ar2315'] / 1e6:6.1f} Mbit/s")
    print(f"  Geode LX800:          {row.throughput_bps['geode-lx800'] / 1e6:6.1f} Mbit/s")
    print("our simulated goodput is network-bound, not CPU-bound — the paper's "
          "point is that ALPHA verification keeps up with the radio")

    # On-path accounting on one mid-grid relay.
    onpath = [n for n in path[1:-1]]
    stats = relays[onpath[0]].engine.stats
    print(f"\nrelay {onpath[0]}: {stats.get('s2-ok', 0)} verified S2 blocks, "
          f"{stats.get('dropped', 0)} drops; buffer high-water "
          f"{relays[onpath[0]].engine.buffered_bytes} B "
          f"(ALPHA-M keeps relay buffers at one root per exchange)")


if __name__ == "__main__":
    main()
