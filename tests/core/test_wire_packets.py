"""Wire codec helpers and packet formats."""

import pytest

from repro.core.exceptions import PacketError
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
    peek_assoc_id,
    peek_type,
)
from repro.core.wire import Reader, Writer

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

    def test_peek_assoc_id(self):
        assert peek_assoc_id(sample_packets()[1].encode()) == 9

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
