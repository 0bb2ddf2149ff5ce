"""ALPHA packet formats (paper Figures 2, 3; Section 3.4).

Six packet types:

========  =====================================================
``HS1``   Handshake init: anchors of the initiator's chains.
``HS2``   Handshake response: anchors of the responder's chains.
``S1``    Pre-signature announcement (chain element + MAC(s)/root).
``A1``    Acknowledgment of the pre-signature (+ pre-(n)acks).
``S2``    Message disclosure (+ MAC key, + Merkle path in ALPHA-M).
``A2``    Opened pre-(n)ack / AMT leaf.
========  =====================================================

All multi-byte integers are big-endian. Chain elements and tree nodes
are fixed-width (the hash digest size of the association); decoding
therefore takes the ``hash_size`` negotiated in the handshake. The
handshake packets themselves are self-describing (anchors are
length-prefixed) because they travel before negotiation completes.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from repro.core.exceptions import PacketError
from repro.core.modes import Mode
from repro.core.wire import Reader, Writer

MAGIC = 0xA1FA
VERSION = 1

#: magic u16 | version u8 | type u8 | assoc_id u64 | seq u32
_HEADER = struct.Struct(">HBBQI")


class PacketType(enum.IntEnum):
    HS1 = 1
    HS2 = 2
    S1 = 3
    A1 = 4
    S2 = 5
    A2 = 6


# S1 flag bits.
FLAG_RELIABLE = 0x01

# A1 flag bits.
FLAG_PRE_ACK_PAIR = 0x01
FLAG_AMT_ROOT = 0x02
FLAG_TELEMETRY = 0x04

# Handshake flag bits.
FLAG_PROTECTED = 0x01
FLAG_HS_TELEMETRY = 0x02


def _header(packet_type: PacketType, assoc_id: int, seq: int) -> Writer:
    writer = Writer()
    writer.u16(MAGIC).u8(VERSION).u8(int(packet_type)).u64(assoc_id).u32(seq)
    return writer


def _read_header(reader: Reader) -> tuple[PacketType, int, int]:
    magic = reader.u16()
    if magic != MAGIC:
        raise PacketError(f"bad magic 0x{magic:04x}")
    version = reader.u8()
    if version != VERSION:
        raise PacketError(f"unsupported version {version}")
    raw_type = reader.u8()
    try:
        packet_type = PacketType(raw_type)
    except ValueError:
        raise PacketError(f"unknown packet type {raw_type}") from None
    assoc_id = reader.u64()
    seq = reader.u32()
    return packet_type, assoc_id, seq


#: Ledger summary layout:
#: corrupt_arrivals u32 | verified u32 | dropped u32 | rtt_us u32
_LEDGER_SUMMARY = struct.Struct(">IIII")

_U32_MAX = 0xFFFFFFFF


def _saturate(value: int) -> int:
    """Clamp a counter into u32 range (ledgers count forever; the wire
    field is a bounded snapshot and saturation is fine for a ratio)."""
    if value < 0:
        return 0
    return value if value <= _U32_MAX else _U32_MAX


@dataclass
class LedgerSummary:
    """A receiver's health-ledger digest, piggybacked on A1/HS2.

    Fixed 16-byte wire field (PROTOCOL.md §16) carrying the receiver's
    view of the link back to the signer: how many of the signer's
    packets arrived damaged (``corrupt_arrivals``), how many messages
    were authenticated end-to-end (``verified``), how many arrivals
    were rejected for any reason (``dropped``), and the receiver's
    smoothed RTT in microseconds (0 = no sample yet). All counters are
    cumulative since the ledger entry was created, so the decoder
    merges by elementwise max, not addition. The field is advisory — it is
    NOT covered by the protected-handshake signature and only ever
    biases loss attribution, never authentication decisions.
    """

    corrupt_arrivals: int
    verified: int = 0
    dropped: int = 0
    rtt_us: int = 0

    SIZE = _LEDGER_SUMMARY.size

    def encode(self) -> bytes:
        """The 16-byte wire field, each counter saturated to u32."""
        return _LEDGER_SUMMARY.pack(
            _saturate(self.corrupt_arrivals),
            _saturate(self.verified),
            _saturate(self.dropped),
            _saturate(self.rtt_us),
        )

    @classmethod
    def decode(cls, reader: Reader) -> "LedgerSummary":
        return cls(reader.u32(), reader.u32(), reader.u32(), reader.u32())

    @classmethod
    def unpack_from(cls, data: bytes, offset: int) -> "LedgerSummary":
        """Read the 16-byte field at ``offset`` of a buffer long enough."""
        return cls(*_LEDGER_SUMMARY.unpack_from(data, offset))


@dataclass
class S1Packet:
    """Pre-signature announcement (first packet of an exchange).

    ``pre_signatures`` holds one MAC in base mode, ``n`` MACs in
    ALPHA-C, or a single keyed Merkle root in ALPHA-M (where
    ``message_count`` conveys the number of covered blocks).
    """

    assoc_id: int
    seq: int
    mode: Mode
    chain_index: int
    chain_element: bytes
    pre_signatures: list[bytes]
    message_count: int
    reliable: bool = False

    TYPE = PacketType.S1

    def encode(self) -> bytes:
        writer = _header(self.TYPE, self.assoc_id, self.seq)
        writer.u8(int(self.mode)).u8(FLAG_RELIABLE if self.reliable else 0)
        writer.u32(self.chain_index).raw(self.chain_element)
        writer.u16(self.message_count)
        writer.hash_list(self.pre_signatures, len(self.chain_element))
        return writer.getvalue()

    @classmethod
    def decode_body(cls, reader: Reader, assoc_id: int, seq: int, hash_size: int) -> "S1Packet":
        mode_raw = reader.u8()
        try:
            mode = Mode(mode_raw)
        except ValueError:
            raise PacketError(f"unknown mode {mode_raw}") from None
        flags = reader.u8()
        chain_index = reader.u32()
        chain_element = reader.raw(hash_size)
        message_count = reader.u16()
        pre_signatures = reader.hash_list(hash_size)
        packet = cls(
            assoc_id=assoc_id,
            seq=seq,
            mode=mode,
            chain_index=chain_index,
            chain_element=chain_element,
            pre_signatures=pre_signatures,
            message_count=message_count,
            reliable=bool(flags & FLAG_RELIABLE),
        )
        packet.validate()
        return packet

    def validate(self) -> None:
        if self.message_count < 1:
            raise PacketError("S1 must cover at least one message")
        if not self.pre_signatures:
            raise PacketError("S1 carries no pre-signature")
        if self.mode is Mode.MERKLE:
            if len(self.pre_signatures) != 1:
                raise PacketError("ALPHA-M S1 carries exactly one tree root")
        elif self.mode is Mode.MERKLE_CUMULATIVE:
            if len(self.pre_signatures) > self.message_count:
                raise PacketError(
                    "combined C+M S1 carries at most one root per message"
                )
        elif len(self.pre_signatures) != self.message_count:
            raise PacketError(
                f"S1 claims {self.message_count} messages but carries "
                f"{len(self.pre_signatures)} pre-signatures"
            )


@dataclass
class A1Packet:
    """Verifier's acknowledgment of an S1 (second packet).

    Echoes the signer's chain element (Figure 2 shows A1 as
    ``h^Va_i, h^Ss_i``) and optionally commits to pre-(n)acks — one pair
    per covered message (Figure 3; Table 3 charges ``2n·h`` for ALPHA-C)
    — or to a single AMT root for ALPHA-M (Figure 7).
    """

    assoc_id: int
    seq: int
    ack_index: int
    ack_element: bytes
    echo_sig_index: int
    echo_sig_element: bytes
    pre_acks: list[bytes] = field(default_factory=list)
    pre_nacks: list[bytes] = field(default_factory=list)
    amt_root: bytes | None = None
    telemetry: LedgerSummary | None = None

    TYPE = PacketType.A1

    def encode(self) -> bytes:
        h = len(self.ack_element)
        flags = 0
        if self.pre_acks or self.pre_nacks:
            if len(self.pre_acks) != len(self.pre_nacks):
                raise PacketError("pre-acks and pre-nacks must pair up")
            flags |= FLAG_PRE_ACK_PAIR
        if self.amt_root is not None:
            flags |= FLAG_AMT_ROOT
        if self.telemetry is not None:
            flags |= FLAG_TELEMETRY
        writer = _header(self.TYPE, self.assoc_id, self.seq)
        writer.u8(flags).u32(self.ack_index).raw(self.ack_element)
        writer.u32(self.echo_sig_index).raw(self.echo_sig_element)
        if flags & FLAG_PRE_ACK_PAIR:
            writer.hash_list(self.pre_acks, h).hash_list(self.pre_nacks, h)
        if self.amt_root is not None:
            writer.raw(self.amt_root)
        if self.telemetry is not None:
            writer.raw(self.telemetry.encode())
        return writer.getvalue()

    @classmethod
    def decode_body(cls, reader: Reader, assoc_id: int, seq: int, hash_size: int) -> "A1Packet":
        flags = reader.u8()
        ack_index = reader.u32()
        ack_element = reader.raw(hash_size)
        echo_sig_index = reader.u32()
        echo_sig_element = reader.raw(hash_size)
        pre_acks: list[bytes] = []
        pre_nacks: list[bytes] = []
        amt_root = None
        telemetry = None
        if flags & FLAG_PRE_ACK_PAIR:
            pre_acks = reader.hash_list(hash_size)
            pre_nacks = reader.hash_list(hash_size)
            if len(pre_acks) != len(pre_nacks):
                raise PacketError("pre-acks and pre-nacks must pair up")
        if flags & FLAG_AMT_ROOT:
            amt_root = reader.raw(hash_size)
        if flags & FLAG_TELEMETRY:
            telemetry = LedgerSummary.decode(reader)
        return cls(
            assoc_id=assoc_id,
            seq=seq,
            ack_index=ack_index,
            ack_element=ack_element,
            echo_sig_index=echo_sig_index,
            echo_sig_element=echo_sig_element,
            pre_acks=pre_acks,
            pre_nacks=pre_nacks,
            amt_root=amt_root,
            telemetry=telemetry,
        )


@dataclass
class S2Packet:
    """Message disclosure (third packet).

    Base/ALPHA-C: the message plus the disclosed MAC key. ALPHA-M: one
    block, its index, and the complementary branch set ``{Bc}``.
    """

    assoc_id: int
    seq: int
    disclosed_index: int
    disclosed_element: bytes
    msg_index: int
    message: bytes
    auth_path: list[bytes] = field(default_factory=list)

    TYPE = PacketType.S2

    def encode(self) -> bytes:
        writer = _header(self.TYPE, self.assoc_id, self.seq)
        writer.u32(self.disclosed_index).raw(self.disclosed_element)
        writer.u16(self.msg_index).var_bytes(self.message)
        writer.hash_list(self.auth_path, len(self.disclosed_element))
        return writer.getvalue()

    @classmethod
    def decode_body(cls, reader: Reader, assoc_id: int, seq: int, hash_size: int) -> "S2Packet":
        disclosed_index = reader.u32()
        disclosed_element = reader.raw(hash_size)
        msg_index = reader.u16()
        message = reader.var_bytes()
        auth_path = reader.hash_list(hash_size)
        return cls(
            assoc_id=assoc_id,
            seq=seq,
            disclosed_index=disclosed_index,
            disclosed_element=disclosed_element,
            msg_index=msg_index,
            message=message,
            auth_path=auth_path,
        )


@dataclass
class AckVerdict:
    """One opened (n)ack inside an A2 packet."""

    msg_index: int
    is_ack: bool
    secret: bytes
    path: list[bytes] = field(default_factory=list)


@dataclass
class A2Packet:
    """Opened pre-(n)acks (fourth packet, reliable mode)."""

    assoc_id: int
    seq: int
    disclosed_index: int
    disclosed_element: bytes
    verdicts: list[AckVerdict]

    TYPE = PacketType.A2

    def encode(self) -> bytes:
        h = len(self.disclosed_element)
        writer = _header(self.TYPE, self.assoc_id, self.seq)
        writer.u32(self.disclosed_index).raw(self.disclosed_element)
        writer.u16(len(self.verdicts))
        for verdict in self.verdicts:
            writer.u16(verdict.msg_index).u8(1 if verdict.is_ack else 0)
            writer.var_bytes(verdict.secret).hash_list(verdict.path, h)
        return writer.getvalue()

    @classmethod
    def decode_body(cls, reader: Reader, assoc_id: int, seq: int, hash_size: int) -> "A2Packet":
        disclosed_index = reader.u32()
        disclosed_element = reader.raw(hash_size)
        count = reader.u16()
        verdicts = []
        for _ in range(count):
            msg_index = reader.u16()
            is_ack = bool(reader.u8())
            secret = reader.var_bytes()
            path = reader.hash_list(hash_size)
            verdicts.append(AckVerdict(msg_index, is_ack, secret, path))
        return cls(
            assoc_id=assoc_id,
            seq=seq,
            disclosed_index=disclosed_index,
            disclosed_element=disclosed_element,
            verdicts=verdicts,
        )


@dataclass
class HandshakePacket:
    """HS1/HS2: anchor exchange (paper Section 3.4).

    Self-describing (anchors length-prefixed, hash algorithm named) so it
    can be decoded without association state. In protected mode the
    packet carries the sender's public key blob and a signature over
    :meth:`signed_blob`, binding the chains to a strong identity.
    """

    assoc_id: int
    seq: int
    is_response: bool
    hash_name: str
    nonce: bytes
    sig_anchor: bytes
    sig_chain_length: int
    ack_anchor: bytes
    ack_chain_length: int
    peer_nonce: bytes = b""
    public_key: bytes = b""
    signature: bytes = b""
    #: Optional HS2 ledger summary (PROTOCOL.md §16): a re-bootstrapping
    #: responder hands its link history back so the fresh association
    #: starts with a fused loss view. Advisory only — deliberately NOT
    #: part of :meth:`signed_blob`, so protected handshakes stay
    #: byte-compatible and a tampered summary can at worst skew loss
    #: attribution, never authentication.
    telemetry: LedgerSummary | None = None

    @property
    def TYPE(self) -> PacketType:  # noqa: N802 - mirrors the class constants
        return PacketType.HS2 if self.is_response else PacketType.HS1

    def signed_blob(self) -> bytes:
        """Canonical bytes covered by the protected-mode signature.

        Includes both nonces (the responder signs the initiator's nonce
        too), preventing replay of old signed anchors. The telemetry
        summary is excluded: it is advisory transport metadata, not part
        of the identity being bound.
        """
        writer = Writer()
        writer.var_bytes(self.hash_name.encode("ascii"))
        writer.raw(self.nonce)
        writer.raw(self.peer_nonce or b"\x00" * len(self.nonce))
        writer.u32(self.sig_chain_length).var_bytes(self.sig_anchor)
        writer.u32(self.ack_chain_length).var_bytes(self.ack_anchor)
        return writer.getvalue()

    def encode(self) -> bytes:
        writer = _header(self.TYPE, self.assoc_id, self.seq)
        flags = FLAG_PROTECTED if self.signature else 0
        if self.telemetry is not None:
            flags |= FLAG_HS_TELEMETRY
        writer.u8(flags)
        writer.var_bytes(self.hash_name.encode("ascii"))
        writer.var_bytes(self.nonce)
        writer.var_bytes(self.peer_nonce)
        writer.u32(self.sig_chain_length).var_bytes(self.sig_anchor)
        writer.u32(self.ack_chain_length).var_bytes(self.ack_anchor)
        writer.var_bytes(self.public_key)
        writer.var_bytes(self.signature)
        if self.telemetry is not None:
            writer.raw(self.telemetry.encode())
        return writer.getvalue()

    @classmethod
    def decode_body(
        cls, reader: Reader, assoc_id: int, seq: int, is_response: bool
    ) -> "HandshakePacket":
        # Protection is evident from the signature field; the telemetry
        # bit gates the optional trailing summary.
        flags = reader.u8()
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
        telemetry = None
        if flags & FLAG_HS_TELEMETRY:
            telemetry = LedgerSummary.decode(reader)
        if not sig_anchor or not ack_anchor:
            raise PacketError("handshake must carry both anchors")
        return cls(
            assoc_id=assoc_id,
            seq=seq,
            is_response=is_response,
            hash_name=hash_name,
            nonce=nonce,
            sig_anchor=sig_anchor,
            sig_chain_length=sig_chain_length,
            ack_anchor=ack_anchor,
            ack_chain_length=ack_chain_length,
            peer_nonce=peer_nonce,
            public_key=public_key,
            signature=signature,
            telemetry=telemetry,
        )


AnyPacket = S1Packet | A1Packet | S2Packet | A2Packet | HandshakePacket

#: Wire type byte -> body decoder; the handshake types are absent.
_BODY_DECODERS = {
    int(cls.TYPE): cls.decode_body for cls in (S1Packet, A1Packet, S2Packet, A2Packet)
}


def peek_type(data: bytes) -> PacketType:
    """Classify a packet without decoding its body."""
    reader = Reader(data)
    packet_type, _, _ = _read_header(reader)
    return packet_type


def peek_assoc_id(data: bytes) -> int:
    """Read a packet's association id without decoding its body."""
    reader = Reader(data)
    _, assoc_id, _ = _read_header(reader)
    return assoc_id


# -- one-unpack intake (PROTOCOL.md §14.2) ------------------------------------
#
# A data packet is the 16-byte header, a run of fixed-width body fields,
# and a variable tail. One precompiled Struct per (type, hash width) reads
# the header and the fixed fields in one ``unpack_from``; the tail is
# sliced straight out of the ``bytes``. Each ``_unpack_*`` returns
# ``None`` on any fault, and :func:`decode_packet` then runs the
# ``Reader`` parse, which raises: the ``Reader`` stays the one source of
# error text and ``WireError`` geometry.

#: One A2 verdict's fixed fields: msg_index u16 | is_ack u8 | secret length u16.
_VERDICT = struct.Struct(">HBH")
_MODES = {int(mode): mode for mode in Mode}


def _hash_list(data: bytes, offset: int, h: int) -> tuple[list[bytes] | None, int]:
    """The u16-counted hash list at ``offset`` and the offset after it."""
    start = offset + 2
    if start > len(data):
        return None, 0
    end = start + (data[offset] << 8 | data[offset + 1]) * h
    if end > len(data):
        return None, 0
    return [data[i : i + h] for i in range(start, end, h)], end


def _unpack_s1(data: bytes, fixed: struct.Struct, h: int) -> S1Packet | None:
    """Fixed: mode u8 | flags u8 | chain_index u32 | chain_element |
    message_count u16 | pre-signature count u16. Tail: the pre-signatures."""
    (magic, version, _, assoc_id, seq, mode, flags, chain_index, chain_element,
     message_count, count) = fixed.unpack_from(data)
    start = fixed.size
    end = start + count * h
    mode = _MODES.get(mode)
    if magic != MAGIC or version != VERSION or mode is None or end != len(data):
        return None
    packet = S1Packet(
        assoc_id, seq, mode, chain_index, chain_element,
        [data[i : i + h] for i in range(start, end, h)],
        message_count, bool(flags & FLAG_RELIABLE),
    )
    try:
        packet.validate()
    except PacketError:
        return None
    return packet


def _unpack_a1(data: bytes, fixed: struct.Struct, h: int) -> A1Packet | None:
    """Fixed: flags u8 | ack_index u32 | ack_element | echo_sig_index u32 |
    echo_sig_element. Tail, by flag: the pre-ack and pre-nack lists, the
    AMT root, the ledger summary."""
    (magic, version, _, assoc_id, seq, flags, ack_index, ack_element,
     echo_sig_index, echo_sig_element) = fixed.unpack_from(data)
    if magic != MAGIC or version != VERSION:
        return None
    offset = fixed.size
    pre_acks: list[bytes] | None = []
    pre_nacks: list[bytes] | None = []
    amt_root = telemetry = None
    if flags & FLAG_PRE_ACK_PAIR:
        pre_acks, offset = _hash_list(data, offset, h)
        if pre_acks is None:
            return None
        pre_nacks, offset = _hash_list(data, offset, h)
        if pre_nacks is None or len(pre_acks) != len(pre_nacks):
            return None
    if flags & FLAG_AMT_ROOT:
        amt_root = data[offset : offset + h]
        offset += h
    if flags & FLAG_TELEMETRY:
        if offset + LedgerSummary.SIZE > len(data):
            return None
        telemetry = LedgerSummary.unpack_from(data, offset)
        offset += LedgerSummary.SIZE
    if offset != len(data):
        return None
    return A1Packet(
        assoc_id, seq, ack_index, ack_element, echo_sig_index, echo_sig_element,
        pre_acks, pre_nacks, amt_root, telemetry,
    )


def _unpack_s2(data: bytes, fixed: struct.Struct, h: int) -> S2Packet | None:
    """Fixed: disclosed_index u32 | disclosed_element | msg_index u16 |
    message length u16. Tail: the message, the auth path."""
    (magic, version, _, assoc_id, seq, disclosed_index, disclosed_element,
     msg_index, length) = fixed.unpack_from(data)
    start = fixed.size
    auth_path, end = _hash_list(data, start + length, h)
    if magic != MAGIC or version != VERSION or end != len(data):
        return None
    return S2Packet(
        assoc_id, seq, disclosed_index, disclosed_element, msg_index,
        data[start : start + length], auth_path,
    )


def _unpack_a2(data: bytes, fixed: struct.Struct, h: int) -> A2Packet | None:
    """Fixed: disclosed_index u32 | disclosed_element | verdict count u16.
    Tail: the verdicts."""
    (magic, version, _, assoc_id, seq, disclosed_index, disclosed_element,
     count) = fixed.unpack_from(data)
    if magic != MAGIC or version != VERSION:
        return None
    offset = fixed.size
    verdicts = []
    for _ in range(count):
        if offset + _VERDICT.size > len(data):
            return None
        msg_index, is_ack, length = _VERDICT.unpack_from(data, offset)
        start = offset + _VERDICT.size
        path, offset = _hash_list(data, start + length, h)
        if path is None:
            return None
        verdicts.append(
            AckVerdict(msg_index, bool(is_ack), data[start : start + length], path)
        )
    if offset != len(data):
        return None
    return A2Packet(assoc_id, seq, disclosed_index, disclosed_element, verdicts)


#: Type -> (fixed body fields after the header, ``{h}`` the hash width; unpacker).
_LAYOUTS = {
    PacketType.S1: ("BBI{h}sHH", _unpack_s1),
    PacketType.A1: ("BI{h}sI{h}s", _unpack_a1),
    PacketType.S2: ("I{h}sHH", _unpack_s2),
    PacketType.A2: ("I{h}sH", _unpack_a2),
}
#: Hash width -> {type byte: (header + fixed-field Struct, unpacker)},
#: built on the first decode at that width.
_INTAKE: dict[int, dict[int, tuple]] = {}


def _intake(hash_size: int) -> dict[int, tuple]:
    intake = _INTAKE.get(hash_size)
    if intake is None:
        intake = _INTAKE[hash_size] = {}
        if hash_size > 0:
            for packet_type, (fields, unpack) in _LAYOUTS.items():
                fixed = struct.Struct(_HEADER.format + fields.format(h=hash_size))
                intake[int(packet_type)] = (fixed, unpack)
    return intake


def decode_packet(data: bytes, hash_size: int) -> AnyPacket:
    """Decode any ALPHA packet.

    ``hash_size`` is the digest width of the association's negotiated
    hash (ignored for the self-describing handshake packets).

    S1, A1, S2 and A2 are read with one ``unpack_from`` of their
    header and fixed fields plus slices of their tail. A handshake, or
    a data packet with any fault, takes the ``Reader`` parse instead,
    which raises the same error as :func:`peek_type` for a bad header.
    """
    if type(data) is not bytes:
        data = bytes(data)
    if len(data) > 3:
        entry = _intake(hash_size).get(data[3])
        if entry is not None:
            fixed, unpack = entry
            if len(data) >= fixed.size:
                packet = unpack(data, fixed, hash_size)
                if packet is not None:
                    return packet
    return _decode_fields(data, hash_size)


def _decode_fields(data: bytes, hash_size: int) -> AnyPacket:
    """The field-by-field ``Reader`` parse of any packet."""
    reader = Reader(data)
    packet_type, assoc_id, seq = _read_header(reader)
    decode_body = _BODY_DECODERS.get(int(packet_type))
    if decode_body is None:
        packet = HandshakePacket.decode_body(
            reader, assoc_id, seq, is_response=packet_type is PacketType.HS2
        )
    else:
        packet = decode_body(reader, assoc_id, seq, hash_size)
    reader.expect_end()
    return packet
