"""Wire codec helpers and packet formats."""

import json
import pathlib
from unittest import mock

import pytest

from repro.core import packets
from repro.core.exceptions import PacketError, WireError
from repro.core.modes import Mode
from repro.core.packets import (
    A1Packet,
    A2Packet,
    AckVerdict,
    HandshakePacket,
    PacketType,
    S1Packet,
    S2Packet,
    decode_packet,
    peek_type,
)
from repro.core.wire import Reader, Writer
from tests.properties.test_relay_intake import reference_decode

H = 20


def h(byte: int) -> bytes:
    return bytes([byte]) * H


class TestWriterReader:
    def test_integer_round_trip(self):
        writer = Writer()
        writer.u8(7).u16(300).u32(70000).u64(2**40)
        reader = Reader(writer.getvalue())
        assert reader.u8() == 7
        assert reader.u16() == 300
        assert reader.u32() == 70000
        assert reader.u64() == 2**40
        reader.expect_end()

    def test_var_bytes_round_trip(self):
        writer = Writer()
        writer.var_bytes(b"")
        writer.var_bytes(b"hello")
        reader = Reader(writer.getvalue())
        assert reader.var_bytes() == b""
        assert reader.var_bytes() == b"hello"

    def test_var_bytes_too_long(self):
        with pytest.raises(ValueError):
            Writer().var_bytes(b"x" * 70000)

    def test_hash_list_round_trip(self):
        hashes = [h(1), h(2), h(3)]
        writer = Writer()
        writer.hash_list(hashes, H)
        assert Reader(writer.getvalue()).hash_list(H) == hashes

    def test_hash_list_width_mismatch(self):
        with pytest.raises(ValueError):
            Writer().hash_list([b"short"], H)

    def test_truncation_raises_packet_error(self):
        writer = Writer()
        writer.u32(5)
        reader = Reader(writer.getvalue())
        reader.u16()
        with pytest.raises(PacketError):
            reader.u32()

    def test_trailing_bytes_detected(self):
        reader = Reader(b"\x00\x01extra")
        reader.u16()
        with pytest.raises(PacketError):
            reader.expect_end()

    def test_remaining(self):
        reader = Reader(b"abcd")
        reader.u8()
        assert reader.remaining == 3


def sample_packets():
    return [
        S1Packet(1, 2, Mode.BASE, 63, h(1), [h(2)], 1),
        S1Packet(9, 3, Mode.CUMULATIVE, 61, h(3), [h(4), h(5)], 2, reliable=True),
        S1Packet(9, 4, Mode.MERKLE, 59, h(6), [h(7)], 8),
        A1Packet(1, 2, 63, h(8), 63, h(1)),
        A1Packet(1, 2, 63, h(8), 63, h(1), pre_acks=[h(9)], pre_nacks=[h(10)]),
        A1Packet(1, 2, 63, h(8), 63, h(1), amt_root=h(11)),
        S2Packet(1, 2, 62, h(12), 0, b"payload"),
        S2Packet(1, 2, 62, h(12), 3, b"block", auth_path=[h(13), h(14)]),
        A2Packet(1, 2, 62, h(15), [AckVerdict(0, True, b"secret")]),
        A2Packet(1, 2, 62, h(15), [AckVerdict(1, False, b"s", [h(16)])]),
        HandshakePacket(5, 0, False, "sha1", b"n" * 16, h(17), 100, h(18), 100),
        HandshakePacket(
            5, 0, True, "mmo", b"n" * 16, b"a" * 16, 64, b"b" * 16, 64,
            peer_nonce=b"m" * 16, public_key=b"PK", signature=b"SIG",
        ),
    ]


class TestPacketCodec:
    @pytest.mark.parametrize("packet", sample_packets(), ids=lambda p: type(p).__name__)
    def test_round_trip(self, packet):
        hash_size = 16 if getattr(packet, "hash_name", "sha1") == "mmo" else H
        assert decode_packet(packet.encode(), hash_size) == packet

    def test_peek_type(self):
        s1 = sample_packets()[0]
        assert peek_type(s1.encode()) is PacketType.S1

    def test_bad_magic(self):
        data = bytearray(sample_packets()[0].encode())
        data[0] = 0x00
        with pytest.raises(PacketError):
            decode_packet(bytes(data), H)

    def test_bad_version(self):
        data = bytearray(sample_packets()[0].encode())
        data[2] = 99
        with pytest.raises(PacketError):
            decode_packet(bytes(data), H)

    def test_unknown_type(self):
        data = bytearray(sample_packets()[0].encode())
        data[3] = 77
        with pytest.raises(PacketError):
            decode_packet(bytes(data), H)

    def test_truncated_packet(self):
        data = sample_packets()[0].encode()
        with pytest.raises(PacketError):
            decode_packet(data[:-5], H)

    def test_trailing_garbage(self):
        data = sample_packets()[0].encode() + b"junk"
        with pytest.raises(PacketError):
            decode_packet(data, H)

    def test_every_truncation_point_is_safe(self):
        # Fuzz-lite: decoding any prefix must raise PacketError, never
        # IndexError/struct.error.
        for packet in sample_packets():
            data = packet.encode()
            for cut in range(len(data)):
                with pytest.raises(PacketError):
                    decode_packet(data[:cut], H)

    def test_s1_validation_mismatched_counts(self):
        packet = S1Packet(1, 2, Mode.CUMULATIVE, 63, h(1), [h(2)], 5)
        with pytest.raises(PacketError):
            decode_packet(packet.encode(), H)

    def test_s1_validation_merkle_multiple_roots(self):
        packet = S1Packet(1, 2, Mode.MERKLE, 63, h(1), [h(2), h(3)], 8)
        with pytest.raises(PacketError):
            decode_packet(packet.encode(), H)

    def test_s1_zero_messages(self):
        packet = S1Packet(1, 2, Mode.BASE, 63, h(1), [h(2)], 0)
        with pytest.raises(PacketError):
            decode_packet(packet.encode(), H)

    def test_a1_unpaired_preacks_rejected_on_encode(self):
        packet = A1Packet(1, 2, 63, h(8), 63, h(1), pre_acks=[h(9)], pre_nacks=[])
        with pytest.raises(PacketError):
            packet.encode()

    def test_handshake_missing_anchor(self):
        packet = HandshakePacket(5, 0, False, "sha1", b"n", b"", 0, h(1), 64)
        with pytest.raises(PacketError):
            decode_packet(packet.encode(), H)

    def test_handshake_signed_blob_covers_both_nonces(self):
        p1 = HandshakePacket(5, 0, True, "sha1", b"n" * 16, h(1), 64, h(2), 64,
                             peer_nonce=b"p" * 16)
        p2 = HandshakePacket(5, 0, True, "sha1", b"n" * 16, h(1), 64, h(2), 64,
                             peer_nonce=b"q" * 16)
        assert p1.signed_blob() != p2.signed_blob()

    def test_mmo_hash_size_packets(self):
        packet = S1Packet(1, 2, Mode.BASE, 63, b"\x01" * 16, [b"\x02" * 16], 1)
        assert decode_packet(packet.encode(), 16) == packet


SHORT = b"short"
#: One entry past the 16-bit count/length prefix.
TOO_MANY = [h(1)] * 0x10000
TOO_LONG = b"x" * 0x10000


def s1(sigs):
    return S1Packet(1, 2, Mode.CUMULATIVE, 63, h(1), sigs, 2)


def a1(acks, nacks):
    return A1Packet(1, 2, 63, h(8), 63, h(1), pre_acks=acks, pre_nacks=nacks)


def s2(message=b"m", path=()):
    return S2Packet(1, 2, 62, h(12), 0, message, auth_path=list(path))


def a2(secret=b"s", path=()):
    return A2Packet(1, 2, 62, h(15), [AckVerdict(0, True, secret, list(path))])


class TestEncodeErrorContract:
    """What ``encode()`` raises for a packet it cannot put on the wire.

    A field that does not fit its 16-bit prefix, or a hash-list entry
    whose width differs from the packet's chain element, is a caller bug
    (``ValueError``); pre-acks without matching pre-nacks are a protocol
    violation (``PacketError``). Neither may ever yield bytes.
    """

    @pytest.mark.parametrize(
        "packet",
        [
            s1([h(2), SHORT]),
            a1([SHORT], [h(9)]),
            a1([h(9)], [SHORT]),
            s2(path=[h(13), SHORT]),
            a2(path=[SHORT]),
        ],
        ids=["S1-sig", "A1-ack", "A1-nack", "S2-path", "A2-path"],
    )
    def test_wrong_width_hash_list_entry(self, packet):
        with pytest.raises(ValueError, match="hash width mismatch"):
            packet.encode()

    @pytest.mark.parametrize(
        "packet",
        [
            s1(TOO_MANY),
            a1(TOO_MANY, TOO_MANY),
            s2(message=TOO_LONG),
            s2(path=TOO_MANY),
            a2(secret=TOO_LONG),
            a2(path=TOO_MANY),
        ],
        ids=["S1-sigs", "A1-acks", "S2-message", "S2-path", "A2-secret", "A2-path"],
    )
    def test_field_over_16_bits(self, packet):
        with pytest.raises(ValueError, match="too long"):
            packet.encode()

    @pytest.mark.parametrize(
        "acks, nacks",
        [([], [h(10)]), ([h(9), h(9)], [h(10)])],
        ids=["nacks-only", "two-to-one"],
    )
    def test_a1_unpaired_pre_acks(self, acks, nacks):
        # Acks without nacks: TestPacketCodec.test_a1_unpaired_preacks_rejected_on_encode.
        with pytest.raises(PacketError, match="pair up"):
            a1(acks, nacks).encode()


CORPUS = pathlib.Path(__file__).parents[1] / "golden" / "wire_vectors.jsonl"
DATA_VECTORS = [
    vector
    for vector in map(json.loads, CORPUS.read_text(encoding="utf-8").splitlines()[1:])
    if vector["type"] in ("S1Packet", "A1Packet", "S2Packet", "A2Packet")
]


class TestOnePassDecode:
    """S1/A1/S2/A2 decode in one pass: neither a well-formed data packet
    nor a broken one builds a ``Reader``. The error each raises is checked
    against a field-by-field reference in
    ``tests/properties/test_relay_intake.py``."""

    @pytest.mark.parametrize("vector", DATA_VECTORS, ids=lambda v: v["name"])
    def test_data_packets_build_no_reader(self, vector):
        data, h = bytes.fromhex(vector["hex"]), vector["hash_size"]
        with mock.patch.object(packets, "Reader", side_effect=AssertionError):
            assert decode_packet(data, h).encode() == data
            for end in range(len(data)):
                with pytest.raises(PacketError):
                    decode_packet(data[:end], h)
            for extra in (b"\x00", b"\xff"):
                with pytest.raises(PacketError, match="1 trailing bytes"):
                    decode_packet(data + extra, h)

    def test_data_packet_at_a_width_with_no_layout(self):
        with pytest.raises(PacketError, match="no S1 layout at hash width 0"):
            decode_packet(sample_packets()[0].encode(), 0)


def amt_a2(width: int, verdicts: int) -> A2Packet:
    """An A2 opening ``verdicts`` leaves of a depth-7 ack tree (a batch of
    64, so 128 leaves): 16-byte secrets and seven-hash paths."""
    return A2Packet(7, 3, 62, b"\x0f" * width, [
        AckVerdict(i, i % 2 == 0, bytes([16 + i]) * 16,
                   [bytes([32 + 8 * i + j]) * width for j in range(7)])
        for i in range(verdicts)
    ])


def wire_fields(packet: A2Packet, width: int) -> list[tuple[int, int]]:
    """``(offset, size)`` of every field of ``packet`` in wire order,
    each hash of a path its own field."""
    sizes = [2, 1, 1, 8, 4, 4, width, 2]
    for verdict in packet.verdicts:
        sizes += [2, 1, 2, len(verdict.secret), 2, *[width] * len(verdict.path)]
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    return list(zip(offsets, sizes))


class TestA2Cuts:
    """Every cut of an AMT depth-7 A2 (the golden corpus has paths of at
    most three hashes, and its ``a2-b1-v1`` vectors already give every
    cut of a one-verdict ALPHA-C A2): the first field the cut leaves
    short is the one reported, with its offset, width and the bytes
    left, as the field-by-field reference reads it."""

    @pytest.mark.parametrize("width", [16, 20, 32])
    @pytest.mark.parametrize("verdicts", [1, 2])
    def test_every_cut(self, width, verdicts):
        packet = amt_a2(width, verdicts)
        data = packet.encode()
        fields = wire_fields(packet, width)
        assert sum(fields[-1]) == len(data)
        assert decode_packet(data, width) == packet == reference_decode(data, width)
        for end in range(len(data)):
            offset, size = next((o, n) for o, n in fields if o + n > end)
            want = str(WireError(offset, size, end - offset))
            for decode in (decode_packet, reference_decode):
                with pytest.raises(WireError) as raised:
                    decode(data[:end], width)
                assert str(raised.value) == want, (decode.__name__, end)
                assert (raised.value.offset, raised.value.wanted) == (offset, size)

    @pytest.mark.parametrize("width", [16, 20, 32])
    def test_a_longer_claim_is_a_cut(self, width):
        """A path count one past the hashes present reads as a cut at the
        first missing hash; trailing bytes after a whole A2 are named."""
        data = bytearray(amt_a2(width, 1).encode())
        count_at = len(data) - 7 * width - 2
        data[count_at + 1] += 1
        with pytest.raises(WireError) as raised:
            decode_packet(bytes(data), width)
        assert (raised.value.offset, raised.value.wanted, raised.value.available) == (
            len(data), width, 0,
        )
        with pytest.raises(PacketError, match="^3 trailing bytes after packet$"):
            decode_packet(amt_a2(width, 1).encode() + b"xyz", width)


#: The largest UDP payload (``transports/udp.py``): no datagram is longer.
DATAGRAM_LIMIT = 65507

#: Each data type with a hash list last: the packet carrying ``items``
#: there, and that list read back. An A1 carries them twice.
LIST_CARRIERS = {
    "S1": (
        lambda e, items: S1Packet(1, 2, Mode.MERKLE_CUMULATIVE, 63, e, items, 0xFFFF),
        lambda p: p.pre_signatures,
    ),
    "A1": (
        lambda e, items: A1Packet(1, 2, 63, e, 63, e, items, items),
        lambda p: p.pre_acks + p.pre_nacks,
    ),
    "S2": (
        lambda e, items: S2Packet(1, 2, 62, e, 0, b"m", auth_path=items),
        lambda p: p.auth_path,
    ),
    "A2": (
        lambda e, items: A2Packet(1, 2, 62, e, [AckVerdict(0, True, b"s" * 16, items)]),
        lambda p: p.verdicts[0].path,
    ),
}


def list_datagrams(kind: str, width: int):
    """``(data, items)`` for a ``kind`` packet whose hash list holds each
    count of distinct items, from 0 up to as many as fit in a datagram."""
    items = [i.to_bytes(width, "big") for i in range(DATAGRAM_LIMIT // width)]
    blob, lists = b"".join(items), 2 if kind == "A1" else 1
    one = LIST_CARRIERS[kind][0](b"\xee" * width, items[:1]).encode()
    prefix = one[: -(2 + width) * lists]
    for count in range(len(items) + 1):
        data = prefix + (count.to_bytes(2, "big") + blob[: count * width]) * lists
        if len(data) > DATAGRAM_LIMIT:
            return
        yield data, items[:count] * lists


class TestListDecodeCache:
    """Hash lists decode through ``Struct`` layouts cached per (count,
    width), up to ``_LIST_LAYOUT_MAX`` items; a longer list, which a
    sender may claim with any u16 count, is sliced, so the cache stays
    within its bound whatever arrives."""

    @pytest.mark.parametrize("kind", LIST_CARRIERS)
    def test_every_count_up_to_the_datagram_limit(self, kind):
        read = LIST_CARRIERS[kind][1]
        bound = packets._list_layout.cache_parameters()["maxsize"]
        packets._list_layout.cache_clear()
        for width in (16, 20, 32):
            for data, items in list_datagrams(kind, width):
                if kind == "S1" and not items:
                    with pytest.raises(PacketError, match="no pre-signature"):
                        decode_packet(data, width)
                    continue
                assert read(decode_packet(data, width)) == items
                assert packets._list_layout.cache_info().currsize <= bound
            # The last datagram is full: one more item per list won't fit.
            assert len(data) + width * (2 if kind == "A1" else 1) > DATAGRAM_LIMIT
        # One layout per count up to the ceiling, per width; an empty
        # list needs none, except in an S1, which is rejected after.
        assert packets._list_layout.cache_info().currsize == 3 * (
            packets._LIST_LAYOUT_MAX + (kind == "S1")
        )

    def test_long_lists_never_reach_the_cache(self):
        packets._list_layout.cache_clear()
        for count in (packets._LIST_LAYOUT_MAX + 1, 0xFFFF // H):
            path = [i.to_bytes(H, "big") for i in range(count)]
            packet = S2Packet(1, 2, 62, h(12), 0, b"m", auth_path=path)
            assert decode_packet(packet.encode(), H).auth_path == path
        assert packets._list_layout.cache_info().currsize == 0
