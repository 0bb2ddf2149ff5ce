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

``decode_packet`` reads a well-formed data packet's header and fixed
fields in one ``unpack_from`` and slices its tail;
:func:`reference_decode` is the field-by-field ``Reader`` parse it falls
back to. Both must return equal packets, or raise the same error type
with the same text.

Inputs: every golden wire vector, every truncation of it, each of its
bytes XORed with 0x01 (which turns one packet type into another: S1 into
HS2, A1 into S2) and with 0xFF, and arbitrary bytes. A generator of
well-formed S1/A1/S2/A2 packets covers what the corpus does not: every
A1 flag combination (unknown flag bits included), A2s with 0–4 verdicts,
empty and 0xFFFF-byte messages, hash widths 16, 20 and 32, and
``bytes``/``bytearray``/``memoryview`` input. Each packet, its
truncations and its one-byte extensions must decode (or fail) exactly
as the reference does.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import packets
from repro.core.exceptions import PacketError
from repro.core.hashchain import ChainElement
from repro.core.modes import Mode
from repro.core.packets import (
    FLAG_AMT_ROOT,
    FLAG_PRE_ACK_PAIR,
    FLAG_TELEMETRY,
    MAGIC,
    VERSION,
    A1Packet,
    A2Packet,
    AckVerdict,
    HandshakePacket,
    LedgerSummary,
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


# -- well-formed packets ------------------------------------------------------

u16s = st.integers(min_value=0, max_value=2**16 - 1)
u32s = st.integers(min_value=0, max_value=2**32 - 1)
headers = st.fixed_dictionaries(
    {"assoc_id": st.integers(min_value=0, max_value=2**64 - 1), "seq": u32s}
)
messages = st.one_of(
    st.just(b""), st.binary(min_size=1, max_size=64), st.just(b"\x5a" * 0xFFFF)
)
#: Offset of the A1 flags byte: right after the 16-byte header.
A1_FLAGS_AT = 16


def hash_lists(h: int, min_size: int = 0, max_size: int = 6):
    return st.lists(
        st.binary(min_size=h, max_size=h), min_size=min_size, max_size=max_size
    )


@st.composite
def s1_packets(draw, h):
    mode = draw(st.sampled_from(list(Mode)))
    message_count = draw(st.integers(min_value=1, max_value=8))
    if mode is Mode.MERKLE:
        n_sigs = 1
    elif mode is Mode.MERKLE_CUMULATIVE:
        n_sigs = draw(st.integers(min_value=1, max_value=message_count))
    else:
        n_sigs = message_count
    return S1Packet(
        **draw(headers), mode=mode, chain_index=draw(u32s),
        chain_element=draw(st.binary(min_size=h, max_size=h)),
        pre_signatures=draw(hash_lists(h, n_sigs, n_sigs)),
        message_count=message_count, reliable=draw(st.booleans()),
    ).encode()


def a1_bytes(h, flags, header, indices, elements, pairs, amt_root, telemetry):
    """An A1 carrying ``flags`` as is: a pre-ack pair may be two empty
    lists, and unknown flag bits (which decoders ignore) stay set."""
    packet = A1Packet(
        **header, ack_index=indices[0], ack_element=elements[0],
        echo_sig_index=indices[1], echo_sig_element=elements[1],
        pre_acks=pairs[0] if flags & FLAG_PRE_ACK_PAIR else [],
        pre_nacks=pairs[1] if flags & FLAG_PRE_ACK_PAIR else [],
        amt_root=amt_root if flags & FLAG_AMT_ROOT else None,
        telemetry=telemetry if flags & FLAG_TELEMETRY else None,
    )
    data = bytearray(packet.encode())
    if flags & FLAG_PRE_ACK_PAIR and not pairs[0]:
        # Two zero counts, which the encoder never writes for no pairs.
        fixed_end = A1_FLAGS_AT + 1 + 2 * (4 + h)
        data[fixed_end:fixed_end] = b"\x00" * 4
    data[A1_FLAGS_AT] = flags
    return bytes(data)


@st.composite
def a1_packets(draw, h):
    flags = draw(st.sampled_from(range(8))) | draw(st.integers(0, 31)) << 3
    n_pairs = draw(st.integers(min_value=0, max_value=6))
    element = st.binary(min_size=h, max_size=h)
    return a1_bytes(
        h, flags, draw(headers), draw(st.tuples(u32s, u32s)),
        draw(st.tuples(element, element)),
        draw(st.tuples(*[hash_lists(h, n_pairs, n_pairs)] * 2)),
        draw(element), LedgerSummary(*draw(st.tuples(u32s, u32s, u32s, u32s))),
    )


@st.composite
def s2_packets(draw, h):
    return S2Packet(
        **draw(headers), disclosed_index=draw(u32s),
        disclosed_element=draw(st.binary(min_size=h, max_size=h)),
        msg_index=draw(u16s), message=draw(messages), auth_path=draw(hash_lists(h)),
    ).encode()


@st.composite
def a2_packets(draw, h):
    verdicts = st.builds(
        AckVerdict, msg_index=u16s, is_ack=st.booleans(),
        secret=st.binary(max_size=2 * h), path=hash_lists(h, max_size=5),
    )
    return A2Packet(
        **draw(headers), disclosed_index=draw(u32s),
        disclosed_element=draw(st.binary(min_size=h, max_size=h)),
        verdicts=draw(st.lists(verdicts, max_size=4)),
    ).encode()


@st.composite
def well_formed(draw):
    h = draw(st.sampled_from(sorted(HASHES)))
    kind = draw(st.sampled_from([s1_packets, a1_packets, s2_packets, a2_packets]))
    return h, draw(kind(h))


def assert_bytes_fields(value) -> None:
    """No decoded field may alias the input buffer: every byte string is ``bytes``."""
    if dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            assert_bytes_fields(getattr(value, item.name))
    elif isinstance(value, list):
        for item in value:
            assert_bytes_fields(item)
    else:
        assert not isinstance(value, (bytearray, memoryview)), type(value)


def cut_points(data: bytes):
    """Every truncation, except that inside a long packet's body only
    every 997th cut is taken: all cuts there fail on the same field."""
    if len(data) <= 1024:
        return range(len(data))
    head, tail = range(256), range(len(data) - 256, len(data))
    return sorted({*head, *tail, *range(0, len(data), 997)})


@settings(max_examples=300, deadline=None)
@given(
    packet=well_formed(),
    buffer=st.sampled_from([bytes, bytearray, memoryview]),
)
def test_well_formed_packets_decode_as_the_reference(packet, buffer):
    h, data = packet
    # A well-formed data packet never needs the Reader fallback.
    with mock.patch.object(packets, "_decode_fields", side_effect=AssertionError):
        decoded = decode_packet(buffer(data), h)
    assert decoded == reference_decode(data, h)
    assert type(decoded) is _BODIES[PacketType(data[3])].__self__
    assert_bytes_fields(decoded)
    view = buffer(data)
    for end in cut_points(data):
        assert_same_decode(view[:end], h)
    for extra in (b"\x00", b"\xff"):
        assert_same_decode(buffer(data + extra), h)


@pytest.mark.parametrize("h", sorted(HASHES))
@pytest.mark.parametrize("pairs", [0, 3])
@pytest.mark.parametrize("flags", [*range(8), *(0xF8 | f for f in range(8))])
def test_every_a1_flag_combination(flags, pairs, h):
    data = a1_bytes(
        h, flags, {"assoc_id": 7, "seq": 1}, (3, 5), (b"\x01" * h, b"\x02" * h),
        ([b"\x03" * h] * pairs, [b"\x04" * h] * pairs), b"\x05" * h,
        LedgerSummary(1, 2, 3, 4),
    )
    with mock.patch.object(packets, "_decode_fields", side_effect=AssertionError):
        assert decode_packet(data, h) == reference_decode(data, h)
    for end in range(len(data)):
        assert_same_decode(data[:end], h)
    assert_same_decode(data + b"\x00", h)
