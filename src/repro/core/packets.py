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

# The ledger digest lives with the ledger (repro.obs.linkhealth): the
# obs package must stay importable without repro.core (the engines all
# import obs), so the wire layer imports the type, not the other way
# around. Re-exported here because it IS a wire field.
from repro.obs.linkhealth import LedgerSummary

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

#: Valid wire type bytes, so a decode checks the type without ``PacketType(raw)``.
_TYPE_BYTES = frozenset(int(packet_type) for packet_type in PacketType)
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


def decode_packet(data: bytes, hash_size: int) -> AnyPacket:
    """Decode any ALPHA packet.

    ``hash_size`` is the digest width of the association's negotiated
    hash (ignored for the self-describing handshake packets).

    A well-formed header is read in one ``unpack_from``; on any header
    fault the field-by-field :func:`_read_header` parse runs instead, so
    the error raised is the same as :func:`peek_type`'s.
    """
    if len(data) >= _HEADER.size:
        magic, version, raw_type, assoc_id, seq = _HEADER.unpack_from(data)
    else:
        magic = version = raw_type = None
    if magic == MAGIC and version == VERSION and raw_type in _TYPE_BYTES:
        reader = Reader(data, _HEADER.size)
    else:
        reader = Reader(data)
        packet_type, assoc_id, seq = _read_header(reader)
        raw_type = int(packet_type)
    decode_body = _BODY_DECODERS.get(raw_type)
    if decode_body is None:
        packet = HandshakePacket.decode_body(
            reader, assoc_id, seq, is_response=raw_type == PacketType.HS2
        )
    else:
        packet = decode_body(reader, assoc_id, seq, hash_size)
    reader.expect_end()
    return packet
