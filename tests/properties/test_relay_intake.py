"""Differential property test: the relay's one-decode intake.

``RelayEngine.handle`` decodes each datagram once and branches on the
decoded type; only bytes that fail to decode are classified again by
header (PROTOCOL.md §14.5). The reference here, :class:`PeekFirstRelay`,
is the intake order that came before it: classify with ``peek_type``
first, decode a handshake on its own path (``malformed-hs1`` /
``malformed-hs2``), and decode everything else afterwards
(``malformed``). Two engines, one of each, judge the same bytes; after
every packet the decision and the ``stats`` (its ``malformed`` key is
the corrupt-drop count) must agree, and neither may raise.

``decode_packet`` reads a data packet in one pass: one ``unpack_from``
of its header and fixed fields, slices of its tail, and the first fault
in wire order. :func:`reference_decode` is an independent
field-by-field ``Reader`` parse of every packet type, kept here and in
no production module. Both must return equal packets, or raise the
same error type with the same text (a ``WireError``'s text carries its
offset, wanted and available byte counts).

Inputs: every golden wire vector, every truncation of it, each of its
bytes XORed with 0x01 (which turns one packet type into another: S1 into
HS2, A1 into S2) and with 0xFF, every corpus A1 and HS2 in the retired
format that carried a 16-byte ledger summary behind a flag bit (a typed
drop now), and arbitrary bytes. A generator of
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

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.exceptions import PacketError
from repro.core.hashchain import ChainElement
from repro.core.modes import Mode
from repro.core.packets import (
    FLAG_AMT_ROOT,
    FLAG_PRE_ACK_PAIR,
    FLAG_RELIABLE,
    MAGIC,
    VERSION,
    A1Packet,
    A2Packet,
    AckVerdict,
    HandshakePacket,
    PacketType,
    S1Packet,
    S2Packet,
    _read_header,
    decode_packet,
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


# -- the reference: a field-by-field ``Reader`` parse ------------------------


def read_hash_list(reader: Reader, h: int) -> list[bytes]:
    """A 16-bit counted list of ``h``-byte hashes, one element at a time."""
    return [reader.raw(h) for _ in range(reader.u16())]


def reference_s1(reader: Reader, assoc_id: int, seq: int, h: int) -> S1Packet:
    mode_raw = reader.u8()
    try:
        mode = Mode(mode_raw)
    except ValueError:
        raise PacketError(f"unknown mode {mode_raw}") from None
    flags = reader.u8()
    chain_index = reader.u32()
    chain_element = reader.raw(h)
    message_count = reader.u16()
    pre_signatures = read_hash_list(reader, h)
    packet = S1Packet(
        assoc_id, seq, mode, chain_index, chain_element, pre_signatures,
        message_count, reliable=bool(flags & FLAG_RELIABLE),
    )
    packet.validate()
    return packet


def reference_a1(reader: Reader, assoc_id: int, seq: int, h: int) -> A1Packet:
    flags = reader.u8()
    ack_index = reader.u32()
    ack_element = reader.raw(h)
    echo_sig_index = reader.u32()
    echo_sig_element = reader.raw(h)
    pre_acks: list[bytes] = []
    pre_nacks: list[bytes] = []
    amt_root = None
    if flags & FLAG_PRE_ACK_PAIR:
        pre_acks = read_hash_list(reader, h)
        pre_nacks = read_hash_list(reader, h)
        if len(pre_acks) != len(pre_nacks):
            raise PacketError("pre-acks and pre-nacks must pair up")
    if flags & FLAG_AMT_ROOT:
        amt_root = reader.raw(h)
    return A1Packet(
        assoc_id, seq, ack_index, ack_element, echo_sig_index, echo_sig_element,
        pre_acks, pre_nacks, amt_root,
    )


def reference_s2(reader: Reader, assoc_id: int, seq: int, h: int) -> S2Packet:
    disclosed_index = reader.u32()
    disclosed_element = reader.raw(h)
    msg_index = reader.u16()
    message = reader.var_bytes()
    return S2Packet(
        assoc_id, seq, disclosed_index, disclosed_element, msg_index, message,
        read_hash_list(reader, h),
    )


def reference_a2(reader: Reader, assoc_id: int, seq: int, h: int) -> A2Packet:
    disclosed_index = reader.u32()
    disclosed_element = reader.raw(h)
    verdicts = []
    for _ in range(reader.u16()):
        msg_index = reader.u16()
        is_ack = bool(reader.u8())
        secret = reader.var_bytes()
        path = read_hash_list(reader, h)
        verdicts.append(AckVerdict(msg_index, is_ack, secret, path))
    return A2Packet(assoc_id, seq, disclosed_index, disclosed_element, verdicts)


def reference_handshake(
    reader: Reader, assoc_id: int, seq: int, is_response: bool
) -> HandshakePacket:
    reader.u8()  # flags: protection shows in the signature field
    try:
        hash_name = reader.var_bytes().decode("ascii")
    except UnicodeDecodeError:
        raise PacketError("handshake hash name is not ASCII") from None
    nonce = reader.var_bytes()
    peer_nonce = reader.var_bytes()
    sig_chain_length = reader.u32()
    sig_anchor = reader.var_bytes()
    ack_chain_length = reader.u32()
    ack_anchor = reader.var_bytes()
    public_key = reader.var_bytes()
    signature = reader.var_bytes()
    if not sig_anchor or not ack_anchor:
        raise PacketError("handshake must carry both anchors")
    return HandshakePacket(
        assoc_id, seq, is_response, hash_name, nonce, sig_anchor,
        sig_chain_length, ack_anchor, ack_chain_length, peer_nonce,
        public_key, signature,
    )


_BODIES = {
    PacketType.S1: reference_s1,
    PacketType.A1: reference_a1,
    PacketType.S2: reference_s2,
    PacketType.A2: reference_a2,
}


def peek_assoc_id(data: bytes) -> int:
    """A packet's association id, read from its header alone (a vector
    that does not decode still names one)."""
    return _read_header(Reader(data))[1]


def reference_decode(data: bytes, hash_size: int):
    """``decode_packet`` as a field-by-field ``Reader`` parse."""
    reader = Reader(data)
    packet_type, assoc_id, seq = _read_header(reader)
    if packet_type in (PacketType.HS1, PacketType.HS2):
        packet = reference_handshake(
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
    # ``stats["malformed"]`` is the relay's corrupt-drop count.
    assert fast.stats == reference.stats


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


@pytest.mark.parametrize("hash_size", sorted(HASHES))
def test_every_cut_of_a_broken_header(hash_size):
    """A header with its magic, version, type or S1 mode byte flipped,
    cut at every length: the fault present must come before the field
    that is cut short, and only then."""
    for packet_type in range(9):
        header = alpha_header(packet_type) + b"\xee"
        for i in (0, 1, 2, 3, len(header) - 1):
            for mask in (0x00, 0x01, 0xFF):
                data = header[:i] + bytes([header[i] ^ mask]) + header[i + 1:]
                for end in range(len(data) + 1):
                    assert_same_decode(data[:end], hash_size)


#: Offset of the A1 and handshake flags byte: right after the header.
FLAGS_AT = 16
#: The flag bits that once announced a 16-byte ledger summary after the
#: last field of an A1 (0x04) or an HS2 (0x02). Decoders ignore both
#: bits now, so a summary sent in that old format is 16 trailing bytes.
RETIRED_A1_BIT = 0x04
RETIRED_HS_BIT = 0x02
RETIRED_FIELD = bytes(range(16))


def with_retired_field(data: bytes) -> bytes:
    """An A1 or HS2 in the retired format: its bit set, a summary after it."""
    bit = RETIRED_A1_BIT if data[3] == PacketType.A1 else RETIRED_HS_BIT
    flags = bytes([data[FLAGS_AT] | bit])
    return data[:FLAGS_AT] + flags + data[FLAGS_AT + 1 :] + RETIRED_FIELD


#: Every corpus A1 and HS2 in the retired format, with its hash width.
RETIRED = {
    vector["name"]: (
        vector["hash_size"], with_retired_field(bytes.fromhex(vector["hex"]))
    )
    for vector in VECTORS
    if vector["name"].startswith(("a1-", "hs2-"))
}

datagrams = st.one_of(
    st.binary(max_size=64),
    st.sampled_from([data for _, data in RETIRED.values()]),
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


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_ledger_summary_is_a_parse_drop(name):
    """An A1 or HS2 still carrying the retired summary raises
    ``PacketError``; a relay drops it as malformed and an endpoint
    counts a parse drop, and neither raises."""
    hash_size, data = RETIRED[name]
    with pytest.raises(PacketError, match="16 trailing bytes"):
        decode_packet(data, hash_size)
    assert_same_decode(data, hash_size)
    fast, reference = engine_pair(hash_size)
    src = "v" if name.startswith("hs2-") else "s"
    assert_same_judgement(fast, reference, data, src)
    assert fast.stats["dropped.malformed"] == 1
    endpoint = AlphaEndpoint("v", EndpointConfig(hash_name=HASHES[hash_size]), seed=1)
    out = endpoint.on_packet(data, "s", 0.0)
    assert (out.replies, out.delivered, out.failures) == ([], [], [])
    assert endpoint.stats.corrupt_drops == 1


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
    assert "malformed" not in relay.stats
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


def a1_bytes(h, flags, header, indices, elements, pairs, amt_root):
    """An A1 carrying ``flags`` as is: a pre-ack pair may be two empty
    lists, and unknown flag bits (which decoders ignore) stay set."""
    packet = A1Packet(
        **header, ack_index=indices[0], ack_element=elements[0],
        echo_sig_index=indices[1], echo_sig_element=elements[1],
        pre_acks=pairs[0] if flags & FLAG_PRE_ACK_PAIR else [],
        pre_nacks=pairs[1] if flags & FLAG_PRE_ACK_PAIR else [],
        amt_root=amt_root if flags & FLAG_AMT_ROOT else None,
    )
    data = bytearray(packet.encode())
    if flags & FLAG_PRE_ACK_PAIR and not pairs[0]:
        # Two zero counts, which the encoder never writes for no pairs.
        fixed_end = FLAGS_AT + 1 + 2 * (4 + h)
        data[fixed_end:fixed_end] = b"\x00" * 4
    data[FLAGS_AT] = flags
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
        draw(element),
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
    decoded = decode_packet(buffer(data), h)
    assert decoded == reference_decode(data, h)
    assert decoded.TYPE == data[3]
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
    )
    assert decode_packet(data, h) == reference_decode(data, h)
    for end in range(len(data)):
        assert_same_decode(data[:end], h)
    assert_same_decode(data + b"\x00", h)
    if flags & RETIRED_A1_BIT:
        # The retired bit with the field it once announced.
        with pytest.raises(PacketError, match="16 trailing bytes"):
            decode_packet(data + RETIRED_FIELD, h)
        assert_same_decode(data + RETIRED_FIELD, h)
