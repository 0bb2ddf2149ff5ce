"""Wire telemetry: no packet carries a ledger summary.

A1 and HS2 once carried a 16-byte ledger summary behind a flag bit
(A1 0x04, HS2 0x02) when observability was on. The field is retired:
the fixed A1 layout is all an A1 without lists costs, and unobserved
endpoints set neither retired bit. That an observed endpoint sends the
same bytes is pinned by ``test_observing_is_wire_neutral``; that a
packet in the old format is a parse drop, by ``test_relay_intake``.
"""

from __future__ import annotations

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.exceptions import PacketError
from repro.core.packets import A1Packet, HandshakePacket, decode_packet
from repro.transports.memory import MemoryNetwork

H = 20  # SHA-1 digest width used by the default config
#: Offset of the A1 and handshake flags byte: right after the header.
FLAGS_AT = 16
RETIRED_A1_BIT = 0x04
RETIRED_HS_BIT = 0x02
RETIRED_FIELD_SIZE = 16


class TestZeroOverheadWhenUnobserved:
    def test_absent_field_costs_zero_bytes(self):
        bare = A1Packet(
            assoc_id=1, seq=1, ack_index=3, ack_element=b"\x01" * H,
            echo_sig_index=4, echo_sig_element=b"\x02" * H,
        ).encode()
        # Flags, the two chain indices and the two elements: nothing else.
        assert len(bare) == FLAGS_AT + 1 + 4 + H + 4 + H
        assert not bare[FLAGS_AT] & RETIRED_A1_BIT
        assert decode_packet(bare, H) == A1Packet(1, 1, 3, b"\x01" * H, 4, b"\x02" * H)
        # The retired field, bit and all, is bytes no decoder accepts.
        flagged = bytearray(bare + bytes(RETIRED_FIELD_SIZE))
        flagged[FLAGS_AT] |= RETIRED_A1_BIT
        with pytest.raises(PacketError, match="16 trailing bytes"):
            decode_packet(bytes(flagged), H)

    def test_obs_off_endpoints_never_emit_telemetry(self):
        wires = []
        net = MemoryNetwork(link=lambda src, dst, data: wires.append(data) or data)
        config = EndpointConfig(chain_length=64)
        for name, seed in (("a", 1), ("b", 2)):
            net.add_endpoint(AlphaEndpoint(name, config, seed=seed))
        net.connect("a", "b")
        for i in range(2):
            net.send("a", "b", b"msg-%d" % i)
        assert len(net.delivered) >= 2
        seen = 0
        for payload in wires:
            packet = decode_packet(payload, H)
            if isinstance(packet, A1Packet):
                assert not payload[FLAGS_AT] & RETIRED_A1_BIT
                seen += 1
            elif isinstance(packet, HandshakePacket):
                assert not payload[FLAGS_AT] & RETIRED_HS_BIT
                seen += 1
        assert seen
