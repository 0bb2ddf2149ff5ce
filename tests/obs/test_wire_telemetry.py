"""Wire telemetry: ledger summaries ride A1/HS2 only when observed.

The overhead contract (PROTOCOL.md §16): with observability off and no
adaptive controller there is no link ledger, so no packet carries a
telemetry field and the wire format is byte-for-byte the pre-telemetry
format (the golden corpus pins that independently). With an enabled
context the verifier's A1s carry its ledger summary, and the signer
fuses it into its own link view — the two-endpoint story behind
``loss_split``.
"""

from __future__ import annotations

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.packets import (
    FLAG_TELEMETRY,
    A1Packet,
    HandshakePacket,
    LedgerSummary,
    decode_packet,
)
from repro.obs import Observability

H = 20  # SHA-1 digest width used by the default config


def drive_pair(config, messages=2, steps=400, observe=False):
    """Shuttle two endpoints to completion; returns (wires, delivered)."""
    nodes = {
        name: AlphaEndpoint(
            name, config, seed=seed, obs=Observability() if observe else None
        )
        for name, seed in (("a", 1), ("b", 2))
    }
    t = 0.0
    _, hs1 = nodes["a"].connect("b", now=t)
    inflight = [("b", "a", hs1)]
    wires, delivered = [hs1], []
    sent = False
    for _ in range(steps):
        t += 0.01
        nxt = []
        for dst, src, payload in inflight:
            out = nodes[dst].on_packet(payload, src, t)
            for peer, reply in out.replies:
                wires.append(reply)
                nxt.append((peer, dst, reply))
            delivered.extend(out.delivered)
        inflight = nxt
        for name, node in nodes.items():
            out = node.poll(t)
            for peer, reply in out.replies:
                wires.append(reply)
                inflight.append((peer, name, reply))
            delivered.extend(out.delivered)
        if not sent and nodes["a"].association("b").established:
            for i in range(messages):
                nodes["a"].send("b", b"msg-%d" % i)
            sent = True
        if sent and len(delivered) >= messages and not inflight:
            break
    assert len(delivered) >= messages
    return nodes, wires


def summary_fields(wires):
    """The telemetry field of every decoded A1/HS packet, in order."""
    fields = []
    for payload in wires:
        packet = decode_packet(payload, H)
        if isinstance(packet, (A1Packet, HandshakePacket)):
            fields.append(packet.telemetry)
    return fields


class TestZeroOverheadWhenUnobserved:
    def test_absent_field_costs_zero_bytes(self):
        base = dict(
            assoc_id=1, seq=1, ack_index=3, ack_element=b"\x01" * H,
            echo_sig_index=4, echo_sig_element=b"\x02" * H,
            pre_acks=[], pre_nacks=[],
        )
        bare = A1Packet(**base).encode()
        carrying = A1Packet(
            **base, telemetry=LedgerSummary(corrupt_arrivals=7, verified=9)
        ).encode()
        assert len(carrying) - len(bare) == LedgerSummary.SIZE
        assert not bare[1] & FLAG_TELEMETRY
        assert decode_packet(bare, H).telemetry is None

    def test_obs_off_endpoints_never_emit_telemetry(self):
        _, wires = drive_pair(EndpointConfig(chain_length=64))
        fields = summary_fields(wires)
        assert fields and all(field is None for field in fields)

    def test_observed_endpoints_exchange_and_fuse_summaries(self):
        nodes, wires = drive_pair(EndpointConfig(chain_length=64), observe=True)
        fields = summary_fields(wires)
        assert any(field is not None for field in fields)
        # The signer merged the verifier's view into its link ledger.
        link = nodes["a"].links.link("b")
        assert link.peer_reports >= 1
        assert link.peer_verified >= 1
