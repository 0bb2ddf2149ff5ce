"""Differential property test: the relay's one-decode intake.

``RelayEngine.handle`` decodes each datagram once and branches on the
decoded type; only bytes that fail to decode are classified again by
header (PROTOCOL.md §14.5). The reference here, :class:`PeekFirstRelay`,
is the intake order that came before it: classify with ``peek_type``
first, decode a handshake on its own path (``malformed-hs1`` /
``malformed-hs2``), and decode everything else afterwards
(``malformed``). Two engines, one of each, judge the same bytes; after
every packet the decision, the ``stats`` and ``corrupt_drops`` must
agree, and neither may raise.

``decode_packet`` reads a well-formed header in one ``unpack_from``;
:func:`reference_decode` is the field-by-field ``Reader`` parse it falls
back to. Both must return equal packets, or raise the same error type
with the same text.

Inputs: every golden wire vector, every truncation of it, each of its
bytes XORed with 0x01 (which turns one packet type into another: S1 into
HS2, A1 into S2) and with 0xFF, and arbitrary bytes.
"""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import PacketError
from repro.core.hashchain import ChainElement
from repro.core.packets import (
    MAGIC,
    VERSION,
    A1Packet,
    A2Packet,
    HandshakePacket,
    PacketType,
    S1Packet,
    S2Packet,
    _read_header,
    decode_packet,
    peek_assoc_id,
    peek_type,
)
from repro.core.relay import RelayDecision, RelayEngine
from repro.core.wire import Reader
from repro.crypto.hashes import get_hash

CORPUS = pathlib.Path(__file__).parents[1] / "golden" / "wire_vectors.jsonl"
VECTORS = [
    json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()[1:]
]
HASHES = {16: "sha1-16", 20: "sha1", 32: "sha256"}

_BODIES = {
    PacketType.S1: S1Packet.decode_body,
    PacketType.A1: A1Packet.decode_body,
    PacketType.S2: S2Packet.decode_body,
    PacketType.A2: A2Packet.decode_body,
}


def reference_decode(data: bytes, hash_size: int):
    """``decode_packet`` with the field-by-field ``Reader`` header parse."""
    reader = Reader(data)
    packet_type, assoc_id, seq = _read_header(reader)
    if packet_type in (PacketType.HS1, PacketType.HS2):
        packet = HandshakePacket.decode_body(
            reader, assoc_id, seq, is_response=packet_type is PacketType.HS2
        )
    else:
        packet = _BODIES[packet_type](reader, assoc_id, seq, hash_size)
    reader.expect_end()
    return packet


class PeekFirstRelay(RelayEngine):
    """Reference intake: ``peek_type`` first, then a decode per path."""

    def handle(self, data, src, dst, now):
        try:
            packet_type = peek_type(data)
        except PacketError:
            return self._count(RelayDecision(True, "not-alpha"))
        try:
            packet = reference_decode(data, self._hash.digest_size)
        except PacketError:
            if packet_type is PacketType.HS1:
                return self._count(RelayDecision(False, "malformed-hs1"))
            if packet_type is PacketType.HS2:
                return self._count(RelayDecision(False, "malformed-hs2"))
            self.resilience.corrupt_drops += 1
            return self._count(RelayDecision(False, "malformed"))
        if packet_type is PacketType.HS1:
            return self._count(self._on_hs1(packet, src))
        if packet_type is PacketType.HS2:
            return self._count(self._on_hs2(packet, src))
        # A packet that decodes takes the same path as in the engine
        # under test, which decodes it again.
        return super().handle(data, src, dst, now)


def engine_pair(hash_size: int) -> tuple[RelayEngine, RelayEngine]:
    """Both intakes, each with every corpus association provisioned, so
    decodable data packets reach the channel checks."""
    engines = []
    for cls in (RelayEngine, PeekFirstRelay):
        engine = cls(get_hash(HASHES[hash_size]))
        anchor = ChainElement(1000, b"\x00" * hash_size)
        for vector in VECTORS:
            engine.provision(
                peek_assoc_id(bytes.fromhex(vector["hex"])), "s", "v",
                anchor, anchor, anchor, anchor,
            )
        engines.append(engine)
    return engines[0], engines[1]


def assert_same_decode(data: bytes, hash_size: int) -> None:
    try:
        want = reference_decode(data, hash_size)
    except PacketError as exc:
        with pytest.raises(type(exc)) as got:
            decode_packet(data, hash_size)
        assert str(got.value) == str(exc)
    else:
        assert decode_packet(data, hash_size) == want


def assert_same_judgement(fast, reference, data, src="s", now=0.0):
    dst = "v" if src == "s" else "s"
    got = fast.handle(data, src, dst, now)
    want = reference.handle(data, src, dst, now)
    assert (got.forward, got.reason) == (want.forward, want.reason), data.hex()
    assert fast.stats == reference.stats
    assert fast.resilience.corrupt_drops == reference.resilience.corrupt_drops


def mutants(data: bytes):
    yield data
    for end in range(len(data)):
        yield data[:end]
    for i in range(len(data)):
        for mask in (0x01, 0xFF):
            yield data[:i] + bytes([data[i] ^ mask]) + data[i + 1:]


@pytest.mark.parametrize("hash_size", sorted(HASHES))
def test_mutated_corpus_vectors(hash_size):
    fast, reference = engine_pair(hash_size)
    reasons = set()
    for vector in VECTORS:
        if vector["hash_size"] != hash_size:
            continue
        for data in mutants(bytes.fromhex(vector["hex"])):
            assert_same_decode(data, hash_size)
            assert_same_judgement(fast, reference, data)
        reasons.update(fast.stats)
    # The mutants reach every intake outcome, not just "malformed".
    assert {
        "not-alpha", "malformed", "malformed-hs1", "malformed-hs2",
        "hs1-observed", "hs2-without-hs1", "s1-bad-chain-element",
    } <= reasons


def alpha_header(packet_type: int) -> bytes:
    return (
        MAGIC.to_bytes(2, "big") + bytes([VERSION, packet_type])
        + (7).to_bytes(8, "big") + (1).to_bytes(4, "big")
    )


datagrams = st.one_of(
    st.binary(max_size=64),
    # A valid header in front, so arbitrary bodies reach every decoder.
    st.builds(
        lambda packet_type, body: alpha_header(packet_type) + body,
        st.integers(min_value=0, max_value=8),
        st.binary(max_size=96),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    hash_size=st.sampled_from(sorted(HASHES)),
    schedule=st.lists(
        st.tuples(datagrams, st.sampled_from(["s", "v", "x"])),
        min_size=1, max_size=20,
    ),
)
def test_arbitrary_bytes(hash_size, schedule):
    fast = RelayEngine(get_hash(HASHES[hash_size]))
    reference = PeekFirstRelay(get_hash(HASHES[hash_size]))
    anchor = ChainElement(1000, b"\x00" * hash_size)
    for engine in (fast, reference):
        engine.provision(7, "s", "v", anchor, anchor, anchor, anchor)
    for data, src in schedule:
        assert_same_decode(data, hash_size)
        assert_same_judgement(fast, reference, data, src)


def vector(name: str) -> bytes:
    return bytes.fromhex(next(v["hex"] for v in VECTORS if v["name"] == name))


@pytest.mark.parametrize(
    "name,reason", [("hs1-h20", "malformed-hs1"), ("hs2-h20", "malformed-hs2")]
)
def test_truncated_handshake_is_dropped_as_malformed(name, reason):
    relay = RelayEngine(get_hash("sha1"))
    decision = relay.handle(vector(name)[:-1], "s", "v", 0.0)
    assert (decision.forward, decision.reason) == (False, reason)
    assert relay.stats == {reason: 1, "dropped": 1, "dropped.malformed": 1}
    # Only a broken data packet is a corrupt drop.
    assert relay.resilience.corrupt_drops == 0
    assert relay.association_count() == 0


def test_malformed_handshakes_provision_nothing():
    relay = RelayEngine(get_hash("sha1"))
    hs1 = vector("hs1-h20")
    assert relay.handle(hs1 + b"\x00", "s", "v", 0.0).reason == "malformed-hs1"
    assert relay.handle(hs1, "s", "v", 0.0).reason == "hs1-observed"
    # An HS2 answering the observed HS1 provisions the association; the
    # same HS2 cut short provisions nothing.
    hs2 = decode_packet(vector("hs2-h20"), 20)
    hs2.assoc_id = peek_assoc_id(hs1)
    answer = hs2.encode()
    assert relay.handle(answer[:20], "v", "s", 0.0).reason == "malformed-hs2"
    assert relay.association_count() == 0
    assert relay.handle(answer, "v", "s", 0.0).reason == "hs2-observed"
    assert relay.association_count() == 1
    assert relay.drop_breakdown() == {"malformed": 2}
