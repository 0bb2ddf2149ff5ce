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
import functools
import re
import struct
from dataclasses import dataclass, field
from typing import NoReturn

from repro.core.exceptions import PacketError, WireError
from repro.core.modes import Mode
from repro.core.wire import U16, U32, Reader, Writer

MAGIC = 0xA1FA
VERSION = 1

#: magic u16 | version u8 | type u8 | assoc_id u64 | seq u32
_HEADER = struct.Struct(">HBBQI")

#: Data-packet encode layouts: each is one run of integer fields.
#: The header plus S1's mode u8 | flags u8 | chain_index u32.
_S1_HEAD = struct.Struct(_HEADER.format + "BBI")
#: Two u16: S1's message_count | pre-signature count, or S2's
#: msg_index | message length.
_TWO_U16 = struct.Struct(">HH")
#: The header plus A1's flags u8 | ack_index u32.
_A1_HEAD = struct.Struct(_HEADER.format + "BI")
#: The header plus the disclosed_index u32 of S2 and A2.
_DISCLOSURE_HEAD = struct.Struct(_HEADER.format + "I")


class PacketType(enum.IntEnum):
    HS1 = 1
    HS2 = 2
    S1 = 3
    A1 = 4
    S2 = 5
    A2 = 6


# S1 flag bits.
FLAG_RELIABLE = 0x01

# A1 flag bits. Decoders ignore any other bit; bytes after the fields
# the known bits announce are trailing bytes (PROTOCOL.md §14.2).
FLAG_PRE_ACK_PAIR = 0x01
FLAG_AMT_ROOT = 0x02

# Handshake flag bits.
FLAG_PROTECTED = 0x01


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


# -- data-packet encode (PROTOCOL.md §14.2) -----------------------------------
#
# S1/A1/S2/A2 ``encode()`` packs each run of integer fields with one
# precompiled Struct and returns one ``b"".join`` of those runs, the
# fixed-width fields, the message and the list items. Fixed-width fields
# are joined as given, unchecked. The errors are those of a field-by-field
# write: ``ValueError`` for a length or count past 16 bits and for a
# hash-list item whose width differs from the packet's chain element,
# ``struct.error`` for an integer out of range, each for the first such
# field in wire order. Only a failing pack calls :func:`_pack_fault`.

#: ``_pack_fault`` codes for the length prefixes a field-by-field write
#: checks itself, and the text of the ``ValueError`` it raises.
_TOO_LONG = {"V": "var_bytes field too long", "L": "hash list too long"}


def _pack_fault(codes: str, *values: int) -> NoReturn:
    """Raise for the first of ``values`` (the caller's integer fields of
    one failed pack, in wire order) that a field-by-field write rejects.

    ``codes`` holds one struct code per value, or ``V`` for a var_bytes
    length and ``L`` for a hash-list count; those two raise
    ``ValueError`` past 16 bits, any other field the ``struct.error`` of
    packing it alone."""
    for code, value in zip(codes, values):
        if code in _TOO_LONG:
            if value > 0xFFFF:
                raise ValueError(f"{_TOO_LONG[code]}: {value}")
        else:
            struct.pack(">" + code, value)
    raise AssertionError(f"no field of {codes!r} fails to pack")


def _width_fault(width: int, value: bytes) -> NoReturn:
    raise ValueError(f"hash width mismatch: expected {width}, got {len(value)}")


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
        element, sigs = self.chain_element, self.pre_signatures
        try:
            head = _S1_HEAD.pack(
                MAGIC, VERSION, self.TYPE, self.assoc_id, self.seq, self.mode,
                FLAG_RELIABLE if self.reliable else 0, self.chain_index,
            )
            counts = _TWO_U16.pack(self.message_count, len(sigs))
        except struct.error:
            _pack_fault(
                "QIBIHL", self.assoc_id, self.seq, self.mode, self.chain_index,
                self.message_count, len(sigs),
            )
        h = len(element)
        for value in sigs:
            if len(value) != h:
                _width_fault(h, value)
        return b"".join([head, element, counts, *sigs])

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

    TYPE = PacketType.A1

    def encode(self) -> bytes:
        element, acks, nacks = self.ack_element, self.pre_acks, self.pre_nacks
        amt_root = self.amt_root
        flags = 0
        if acks or nacks:
            if len(acks) != len(nacks):
                raise PacketError("pre-acks and pre-nacks must pair up")
            flags = FLAG_PRE_ACK_PAIR
        if amt_root is not None:
            flags |= FLAG_AMT_ROOT
        try:
            parts = [
                _A1_HEAD.pack(
                    MAGIC, VERSION, self.TYPE, self.assoc_id, self.seq, flags,
                    self.ack_index,
                ),
                element,
                U32.pack(self.echo_sig_index),
                self.echo_sig_element,
            ]
            if flags & FLAG_PRE_ACK_PAIR:
                count = U16.pack(len(acks))
        except struct.error:
            _pack_fault(
                "QIIIL", self.assoc_id, self.seq, self.ack_index,
                self.echo_sig_index, len(acks),
            )
        if flags & FLAG_PRE_ACK_PAIR:
            h = len(element)
            for value in acks:
                if len(value) != h:
                    _width_fault(h, value)
            for value in nacks:
                if len(value) != h:
                    _width_fault(h, value)
            parts += (count, *acks, count, *nacks)
        if amt_root is not None:
            parts.append(amt_root)
        return b"".join(parts)


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
        element, message, path = self.disclosed_element, self.message, self.auth_path
        try:
            head = _DISCLOSURE_HEAD.pack(
                MAGIC, VERSION, self.TYPE, self.assoc_id, self.seq,
                self.disclosed_index,
            )
            lengths = _TWO_U16.pack(self.msg_index, len(message))
            count = U16.pack(len(path))
        except struct.error:
            _pack_fault(
                "QIIHVL", self.assoc_id, self.seq, self.disclosed_index,
                self.msg_index, len(message), len(path),
            )
        h = len(element)
        for value in path:
            if len(value) != h:
                _width_fault(h, value)
        return b"".join([head, element, lengths, message, count, *path])


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
        element, verdicts = self.disclosed_element, self.verdicts
        try:
            parts = [
                _DISCLOSURE_HEAD.pack(
                    MAGIC, VERSION, self.TYPE, self.assoc_id, self.seq,
                    self.disclosed_index,
                ),
                element,
                U16.pack(len(verdicts)),
            ]
        except struct.error:
            _pack_fault(
                "QIIH", self.assoc_id, self.seq, self.disclosed_index, len(verdicts)
            )
        h = len(element)
        for verdict in verdicts:
            secret, path = verdict.secret, verdict.path
            is_ack = 1 if verdict.is_ack else 0
            try:
                parts += (
                    _VERDICT.pack(verdict.msg_index, is_ack, len(secret)),
                    secret,
                    U16.pack(len(path)),
                )
            except struct.error:
                _pack_fault("HBVL", verdict.msg_index, is_ack, len(secret), len(path))
            for value in path:
                if len(value) != h:
                    _width_fault(h, value)
            parts += path
        return b"".join(parts)


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

    @property
    def TYPE(self) -> PacketType:  # noqa: N802 - mirrors the class constants
        return PacketType.HS2 if self.is_response else PacketType.HS1

    def signed_blob(self) -> bytes:
        """Canonical bytes covered by the protected-mode signature.

        Includes both nonces (the responder signs the initiator's nonce
        too), preventing replay of old signed anchors.
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
        writer.u8(FLAG_PROTECTED if self.signature else 0)
        writer.var_bytes(self.hash_name.encode("ascii"))
        writer.var_bytes(self.nonce)
        writer.var_bytes(self.peer_nonce)
        writer.u32(self.sig_chain_length).var_bytes(self.sig_anchor)
        writer.u32(self.ack_chain_length).var_bytes(self.ack_anchor)
        writer.var_bytes(self.public_key)
        writer.var_bytes(self.signature)
        return writer.getvalue()

    @classmethod
    def decode_body(
        cls, reader: Reader, assoc_id: int, seq: int, is_response: bool
    ) -> "HandshakePacket":
        # Protection is evident from the signature field.
        reader.u8()
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
        )


AnyPacket = S1Packet | A1Packet | S2Packet | A2Packet | HandshakePacket


def peek_type(data: bytes) -> PacketType:
    """Classify a packet without decoding its body."""
    reader = Reader(data)
    packet_type, _, _ = _read_header(reader)
    return packet_type


# -- one-pass intake (PROTOCOL.md §14.2) --------------------------------------
#
# A data packet is the 16-byte header, a run of fixed-width body fields,
# and a variable tail. One precompiled Struct per (type, hash width) reads
# the header and the fixed fields in one ``unpack_from``; the tail is
# sliced straight out of the ``bytes``. Every check is an inline
# comparison. The branch that fails raises the first fault in wire
# order, with the text and ``WireError`` geometry a field-by-field read
# gives, through the helpers below; a well-formed packet calls none.

#: One A2 verdict's fixed fields: msg_index u16 | is_ack u8 | secret length u16.
_VERDICT = struct.Struct(">HBH")
_MODES = {int(mode): mode for mode in Mode}
#: Offset of S1's mode byte, the first field after the header.
_MODE_AT = _HEADER.size


@functools.cache
def _field_sizes(fmt: str) -> tuple[int, ...]:
    """The byte width of each field of a big-endian ``Struct`` format."""
    return tuple(struct.calcsize(">" + f) for f in re.findall(r"\d*\D", fmt[1:]))


def _check_fixed(data: bytes) -> None:
    """Raise for a bad magic, version or S1 mode among the bytes present."""
    if len(data) >= 2 and data[0] << 8 | data[1] != MAGIC:
        raise PacketError(f"bad magic 0x{data[0] << 8 | data[1]:04x}")
    if len(data) >= 3 and data[2] != VERSION:
        raise PacketError(f"unsupported version {data[2]}")
    if (
        len(data) > _MODE_AT and data[3] == PacketType.S1
        and data[_MODE_AT] not in _MODES
    ):
        raise PacketError(f"unknown mode {data[_MODE_AT]}")


def _short_field(data: bytes, offset: int, layout: struct.Struct) -> NoReturn:
    """Raise for the first field of ``layout`` at ``offset`` that ``data``
    cuts short (the caller knows one does)."""
    for size in _field_sizes(layout.format):
        if offset + size > len(data):
            break
        offset += size
    raise WireError(offset, size, len(data) - offset)


def _short_list(data: bytes, start: int, h: int) -> NoReturn:
    """Raise for the first element of the hash list at ``start`` that
    ``data`` cuts short."""
    short = start + (len(data) - start) // h * h
    raise WireError(short, h, len(data) - short)


def _trailing(data: bytes, end: int) -> NoReturn:
    raise PacketError(f"{len(data) - end} trailing bytes after packet")


#: The longest hash list read through one cached ``Struct``; a longer one
#: (no ALPHA batch needs it, but a sender may claim any u16 count) is
#: sliced item by item.
_LIST_LAYOUT_MAX = 64


@functools.lru_cache(maxsize=256)
def _list_layout(count: int, h: int) -> struct.Struct:
    """``count`` consecutive ``h``-byte items, for ``count`` up to
    :data:`_LIST_LAYOUT_MAX`. The cache holds at most 256 of them,
    whatever counts and widths arrive."""
    return struct.Struct(f"{h}s" * count)


def _items(data: bytes, start: int, count: int, h: int) -> list[bytes]:
    """The ``count`` ``h``-byte items at ``start``, which ``data`` holds."""
    if count <= _LIST_LAYOUT_MAX:
        return list(_list_layout(count, h).unpack_from(data, start))
    return [data[i : i + h] for i in range(start, start + count * h, h)]


def _hash_list(data: bytes, offset: int, h: int) -> tuple[list[bytes], int]:
    """The u16-counted hash list at ``offset`` and the offset after it."""
    start = offset + 2
    if start > len(data):
        raise WireError(offset, 2, len(data) - offset)
    count = data[offset] << 8 | data[offset + 1]
    end = start + count * h
    if end > len(data):
        _short_list(data, start, h)
    return (_items(data, start, count, h) if count else []), end


def _unpack_s1(data: bytes, fixed: struct.Struct, h: int) -> S1Packet:
    """Fixed: mode u8 | flags u8 | chain_index u32 | chain_element |
    message_count u16 | pre-signature count u16. Tail: the pre-signatures."""
    (magic, version, _, assoc_id, seq, mode, flags, chain_index, chain_element,
     message_count, count) = fixed.unpack_from(data)
    start = fixed.size
    end = start + count * h
    mode = _MODES.get(mode)
    if magic != MAGIC or version != VERSION or mode is None or end > len(data):
        _check_fixed(data)
        _short_list(data, start, h)
    packet = S1Packet(
        assoc_id, seq, mode, chain_index, chain_element,
        _items(data, start, count, h), message_count, bool(flags & FLAG_RELIABLE),
    )
    packet.validate()
    if end != len(data):
        _trailing(data, end)
    return packet


def _unpack_a1(data: bytes, fixed: struct.Struct, h: int) -> A1Packet:
    """Fixed: flags u8 | ack_index u32 | ack_element | echo_sig_index u32 |
    echo_sig_element. Tail, by flag: the pre-ack and pre-nack lists, the
    AMT root."""
    (magic, version, _, assoc_id, seq, flags, ack_index, ack_element,
     echo_sig_index, echo_sig_element) = fixed.unpack_from(data)
    if magic != MAGIC or version != VERSION:
        _check_fixed(data)
    offset = fixed.size
    pre_acks: list[bytes] = []
    pre_nacks: list[bytes] = []
    amt_root = None
    if flags & FLAG_PRE_ACK_PAIR:
        pre_acks, offset = _hash_list(data, offset, h)
        pre_nacks, offset = _hash_list(data, offset, h)
        if len(pre_acks) != len(pre_nacks):
            raise PacketError("pre-acks and pre-nacks must pair up")
    if flags & FLAG_AMT_ROOT:
        if offset + h > len(data):
            raise WireError(offset, h, len(data) - offset)
        amt_root = data[offset : offset + h]
        offset += h
    if offset != len(data):
        _trailing(data, offset)
    return A1Packet(
        assoc_id, seq, ack_index, ack_element, echo_sig_index, echo_sig_element,
        pre_acks, pre_nacks, amt_root,
    )


def _unpack_s2(data: bytes, fixed: struct.Struct, h: int) -> S2Packet:
    """Fixed: disclosed_index u32 | disclosed_element | msg_index u16 |
    message length u16. Tail: the message, the auth path."""
    (magic, version, _, assoc_id, seq, disclosed_index, disclosed_element,
     msg_index, length) = fixed.unpack_from(data)
    size = len(data)
    start = fixed.size
    stop = start + length
    if magic != MAGIC or version != VERSION or stop > size:
        _check_fixed(data)
        raise WireError(start, length, size - start)
    listed = stop + 2
    if listed > size:
        raise WireError(stop, 2, size - stop)
    count = data[stop] << 8 | data[stop + 1]
    end = listed + count * h
    if end > size:
        _short_list(data, listed, h)
    if end != size:
        _trailing(data, end)
    return S2Packet(
        assoc_id, seq, disclosed_index, disclosed_element, msg_index,
        data[start:stop], _items(data, listed, count, h) if count else [],
    )


def _unpack_a2(data: bytes, fixed: struct.Struct, h: int) -> A2Packet:
    """Fixed: disclosed_index u32 | disclosed_element | verdict count u16.
    Tail: the verdicts, each msg_index u16 | is_ack u8 | secret length
    u16 | secret | path count u16 | path, read in this one loop."""
    (magic, version, _, assoc_id, seq, disclosed_index, disclosed_element,
     count) = fixed.unpack_from(data)
    if magic != MAGIC or version != VERSION:
        _check_fixed(data)
    size = len(data)
    offset = fixed.size
    verdicts = []
    head, step = _VERDICT.unpack_from, _VERDICT.size
    for _ in range(count):
        start = offset + step
        if start > size:
            _short_field(data, offset, _VERDICT)
        msg_index, is_ack, length = head(data, offset)
        stop = start + length
        listed = stop + 2
        if listed > size:
            if stop > size:
                raise WireError(start, length, size - start)
            raise WireError(stop, 2, size - stop)
        paths = data[stop] << 8 | data[stop + 1]
        end = listed + paths * h
        if end > size:
            _short_list(data, listed, h)
        verdicts.append(AckVerdict(
            msg_index, is_ack != 0, data[start:stop],
            _items(data, listed, paths, h) if paths else [],
        ))
        offset = end
    if offset != size:
        _trailing(data, offset)
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
    """Decode any ALPHA packet, or raise the first fault in wire order.

    ``hash_size`` is the digest width of the association's negotiated
    hash (ignored for the self-describing handshake packets).

    S1, A1, S2 and A2 are read in one pass: one ``unpack_from`` of
    their header and fixed fields plus slices of their tail. Only a
    handshake, or a header whose type has no layout at ``hash_size``,
    takes the ``Reader`` parse, which raises the same error as
    :func:`peek_type` for a bad header.
    """
    if type(data) is not bytes:
        data = bytes(data)
    size = len(data)
    if size > 3:
        entry = (_INTAKE.get(hash_size) or _intake(hash_size)).get(data[3])
        if entry is not None:
            fixed, unpack = entry
            if size >= fixed.size:
                return unpack(data, fixed, hash_size)
            _check_fixed(data)
            _short_field(data, 0, fixed)
        return _decode_handshake(data, hash_size)
    _check_fixed(data)
    _short_field(data, 0, _HEADER)


def _decode_handshake(data: bytes, hash_size: int) -> HandshakePacket:
    """The ``Reader`` parse of an HS1/HS2; any other header raises."""
    reader = Reader(data)
    packet_type, assoc_id, seq = _read_header(reader)
    if packet_type is not PacketType.HS1 and packet_type is not PacketType.HS2:
        raise PacketError(f"no {packet_type.name} layout at hash width {hash_size}")
    packet = HandshakePacket.decode_body(
        reader, assoc_id, seq, is_response=packet_type is PacketType.HS2
    )
    reader.expect_end()
    return packet
