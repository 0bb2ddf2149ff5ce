"""Observing changes no wire byte.

Turning observability on must not change what the protocol sends:
every byte on the wire is one the peer authenticates, so an
observed endpoint and an unobserved one put the same datagrams on the
same link. A reliable pair is driven through seeded loss, with a chain
short enough to re-key, once with an :class:`Observability` context and
once without; the two runs must offer the link the same datagram
sequence. A retransmitted S1 is answered with the A1 the verifier
cached for it, byte for byte.

Under corruption as well as loss, the observed endpoint keeps a link
ledger that names a dominant loss cause; no decision of a non-adaptive
endpoint may read it, so the wires must still agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.exceptions import ProtocolError
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

#: The corruption drive: one bit flipped in 10% of datagrams, 10% lost.
FLIP_SHARE = 0.10
LOSS_SHARE = 0.10
CORRUPTION_MESSAGES = [b"msg-%02d" % i for i in range(64)]
CORRUPTION_MODES = {
    "alpha-c": Mode.CUMULATIVE,
    "alpha-m": Mode.MERKLE,
    "base": Mode.BASE,
}
CORRUPTION_SEEDS = range(12)


@dataclass
class BitFlipLink:
    """A :class:`MemoryNetwork` link that records every datagram offered
    to it, then, given ``flips``, flips one seeded bit in
    ``FLIP_SHARE`` of them, and drops it when ``drops()`` is true."""

    drops: Callable[[], bool]
    flips: random.Random | None = None
    wire: list[tuple[str, str, bytes]] = field(default_factory=list)

    def __call__(self, src: str, dst: str, payload: bytes) -> bytes | None:
        self.wire.append((src, dst, payload))
        if self.flips is not None and self.flips.random() < FLIP_SHARE:
            damaged = bytearray(payload)
            bit = self.flips.randrange(8 * len(payload))
            damaged[bit // 8] ^= 1 << bit % 8
            payload = bytes(damaged)
        return None if self.drops() else payload


def established(endpoint: AlphaEndpoint, peer: str) -> bool:
    try:
        return endpoint.association(peer).established
    except ProtocolError:  # the handshake failed and was dropped
        return False


def drive(
    config: EndpointConfig,
    messages: list[bytes],
    observe: bool,
    loss: random.Random,
    loss_share: float,
    flips: random.Random | None = None,
) -> tuple[list[tuple[str, str, bytes]], list[bytes]]:
    """Every datagram offered to the link (lost ones too), in order,
    and what the verifier delivered."""
    link = BitFlipLink(lambda: loss.random() < loss_share, flips)
    net = MemoryNetwork(link=link)
    a, _ = (
        net.add_endpoint(
            AlphaEndpoint(name, config, seed=seed, obs=Observability() if observe else None)
        )
        for name, seed in (("a", 1), ("b", 2))
    )
    net.connect("a", "b")
    for _ in range(40):
        if established(a, "b"):
            break
        net.advance(0.5)
    for message in messages:
        net.send("a", "b", message)
    for _ in range(400):
        if len(net.received_by("b")) == len(messages):
            break
        net.advance(0.25)
    return link.wire, net.received_by("b")


def wire_of(observe: bool) -> tuple[list[tuple[str, str, bytes]], list[bytes]]:
    return drive(CONFIG, MESSAGES, observe, random.Random(7), 0.15)


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


def corruption_drive(
    mode: str, seed: int, observe: bool
) -> tuple[list[tuple[str, str, bytes]], list[bytes]]:
    """A reliable pair in ``CORRUPTION_MODES[mode]`` through one-bit
    flips and loss, both seeded by ``seed``."""
    config = EndpointConfig(
        mode=CORRUPTION_MODES[mode],
        reliability=ReliabilityMode.RELIABLE,
        batch_size=4,
        chain_length=64,
    )
    return drive(
        config,
        CORRUPTION_MESSAGES,
        observe,
        random.Random(f"loss-{seed}"),
        LOSS_SHARE,
        flips=random.Random(f"flip-{seed}"),
    )


@pytest.mark.parametrize("seed", CORRUPTION_SEEDS)
@pytest.mark.parametrize("mode", sorted(CORRUPTION_MODES))
def test_observing_changes_no_wire_byte_under_corruption(mode, seed):
    plain, delivered = corruption_drive(mode, seed, observe=False)
    observed, observed_delivered = corruption_drive(mode, seed, observe=True)
    assert observed_delivered == delivered
    assert observed == plain
