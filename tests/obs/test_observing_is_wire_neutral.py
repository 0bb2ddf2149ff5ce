"""Observing changes no wire byte.

Turning observability on must not change what the protocol sends:
every byte on the wire is one the peer authenticates, so an
observed endpoint and an unobserved one put the same datagrams on the
same link. A reliable ALPHA-C pair is driven through seeded loss, with
a chain short enough to re-key, once with an :class:`Observability`
context and once without; the two runs must offer the link the same
datagram sequence. A retransmitted S1 is answered with the A1 the
verifier cached for it, byte for byte.
"""

from __future__ import annotations

import random

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import A1Packet, HandshakePacket, decode_packet
from repro.obs import Observability
from repro.transports.memory import MemoryNetwork

H = 20  # SHA-1, the default config's hash
CONFIG = EndpointConfig(
    mode=Mode.CUMULATIVE,
    reliability=ReliabilityMode.RELIABLE,
    batch_size=4,
    chain_length=32,
)
MESSAGES = [b"msg-%02d" % i for i in range(48)]


def wire_of(observe: bool) -> tuple[list[tuple[str, str, bytes]], list[bytes]]:
    """Every datagram offered to the link (lost ones too), in order,
    and what the verifier delivered."""
    loss = random.Random(7)
    wire: list[tuple[str, str, bytes]] = []

    def offer(src: str, dst: str, payload: bytes) -> bool:
        wire.append((src, dst, payload))
        return loss.random() < 0.15

    net = MemoryNetwork(drop_filter=offer)
    a, _ = (
        net.add_endpoint(
            AlphaEndpoint(name, CONFIG, seed=seed, obs=Observability() if observe else None)
        )
        for name, seed in (("a", 1), ("b", 2))
    )
    net.connect("a", "b")
    while not a.association("b").established:
        net.advance(0.5)
    for message in MESSAGES:
        net.send("a", "b", message)
    for _ in range(400):
        if len(net.received_by("b")) == len(MESSAGES):
            break
        net.advance(0.25)
    return wire, net.received_by("b")


def test_observing_changes_no_wire_byte():
    plain, delivered = wire_of(observe=False)
    observed, observed_delivered = wire_of(observe=True)
    assert sorted(delivered) == sorted(MESSAGES)
    assert observed_delivered == delivered
    assert observed == plain

    packets = [decode_packet(payload, H) for _, _, payload in plain]
    # The run re-keys: a second handshake opens a second association.
    assert len({p.assoc_id for p in packets if isinstance(p, HandshakePacket)}) >= 2
    # An S1 the verifier answers more than once draws the identical A1.
    a1s: dict[tuple[int, int], list[bytes]] = {}
    for packet, (_, _, payload) in zip(packets, plain):
        if isinstance(packet, A1Packet):
            a1s.setdefault((packet.assoc_id, packet.seq), []).append(payload)
    assert any(len(answers) > 1 for answers in a1s.values())
    assert all(len(set(answers)) == 1 for answers in a1s.values())
