"""Recorded relay traffic for replay-based relay tests.

:func:`record_trace` runs a seeded endpoint pair through one relay on a
:class:`MemoryNetwork` (zero latency, no loss) and keeps every packet the
relay was offered, handshake included, with its source, destination and
time. With ``forge`` each genuine S2 is preceded by a copy with one
message bit flipped, the shape of the ``relay-forge-flood`` benchmark
workload: only the S2's MAC or Merkle check can tell the two apart.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import PacketType, decode_packet, peek_type
from repro.core.relay import RelayEngine
from repro.crypto.hashes import get_hash
from repro.transports.memory import MemoryNetwork

Packet = tuple[bytes, str, str, float]


class _Recorder:
    """A forwarding relay that keeps what it was offered."""

    def __init__(self) -> None:
        self.engine = RelayEngine(get_hash("sha1"))
        self.packets: list[Packet] = []

    def handle(self, data: bytes, src: str, dst: str, now: float):
        self.packets.append((data, src, dst, now))
        return self.engine.handle(data, src, dst, now)


def record_trace(
    mode: Mode,
    reliability: ReliabilityMode,
    batch: int = 1,
    messages: int = 12,
    forge: bool = False,
    seed: int = 1,
) -> list[Packet]:
    """Every packet the relay saw while ``a`` sent ``messages`` to ``b``."""
    config = EndpointConfig(
        mode=mode, reliability=reliability, batch_size=batch, chain_length=64
    )
    net = MemoryNetwork()
    a, _ = (
        net.add_endpoint(AlphaEndpoint(name, config, seed=f"{seed}-{name}"))
        for name in ("a", "b")
    )
    recorder = _Recorder()
    net.add_relays("a", "b", [recorder])
    net.connect("a", "b")
    for i in range(messages):
        # Queue a whole batch before the network runs, so each exchange
        # carries ``batch`` messages.
        a.send("b", b"trace-%02d" % i)
        if (i + 1) % batch == 0 or i + 1 == messages:
            net.advance(0.25)
    assert len(net.received_by("b")) == messages
    if not forge:
        return recorder.packets
    rng = random.Random(f"{seed}:forge")
    trace = []
    for data, src, dst, now in recorder.packets:
        if peek_type(data) is PacketType.S2:
            packet = decode_packet(data, get_hash("sha1").digest_size)
            flipped = bytearray(packet.message)
            flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
            forged = replace(packet, message=bytes(flipped)).encode()
            trace.append((forged, src, dst, now))
        trace.append((data, src, dst, now))
    return trace
