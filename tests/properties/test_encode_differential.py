"""Differential property test: the one-pack data-packet encode.

S1/A1/S2/A2 ``encode()`` packs each run of integer fields with one
precompiled ``Struct`` and joins the runs, the fixed-width fields, the
message and the list items in one ``b"".join`` (PROTOCOL.md §14.2).
:func:`reference_encode` is the field-by-field ``Writer`` encode that
came before it, kept here and in no production module. For every packet
both must return the same bytes, or raise the same error type with the
same text.

Inputs: packets of all four types with every A1 flag combination (the
retired ledger-summary bit only as a decode check: no encoder sets it), A2s
with 0-4 verdicts, empty and 0xFFFF-byte messages, fixed-width fields
of any width (a field-by-field write appends them unchecked), hash-list
items of the wrong width, lengths and counts one past 16 bits, pre-acks
without matching pre-nacks and integers out of range, alone and
together: the first fault in wire order decides the error.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import PacketError
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
    PacketType,
    S1Packet,
    S2Packet,
    decode_packet,
)
from repro.core.wire import Writer

WIDTHS = (16, 20, 32)

# -- the reference: a field-by-field ``Writer`` encode -----------------------


def write_hash_list(writer: Writer, hashes: list[bytes], h: int) -> Writer:
    """A 16-bit counted list of ``h``-byte hash values."""
    if len(hashes) > 0xFFFF:
        raise ValueError(f"hash list too long: {len(hashes)}")
    writer.u16(len(hashes))
    for value in hashes:
        if len(value) != h:
            raise ValueError(f"hash width mismatch: expected {h}, got {len(value)}")
        writer.raw(value)
    return writer


def reference_header(packet_type: PacketType, assoc_id: int, seq: int) -> Writer:
    writer = Writer()
    writer.u16(MAGIC).u8(VERSION).u8(int(packet_type)).u64(assoc_id).u32(seq)
    return writer


def reference_s1(packet: S1Packet) -> bytes:
    writer = reference_header(PacketType.S1, packet.assoc_id, packet.seq)
    writer.u8(int(packet.mode)).u8(FLAG_RELIABLE if packet.reliable else 0)
    writer.u32(packet.chain_index).raw(packet.chain_element)
    writer.u16(packet.message_count)
    write_hash_list(writer, packet.pre_signatures, len(packet.chain_element))
    return writer.getvalue()


def reference_a1(packet: A1Packet) -> bytes:
    h = len(packet.ack_element)
    flags = 0
    if packet.pre_acks or packet.pre_nacks:
        if len(packet.pre_acks) != len(packet.pre_nacks):
            raise PacketError("pre-acks and pre-nacks must pair up")
        flags |= FLAG_PRE_ACK_PAIR
    if packet.amt_root is not None:
        flags |= FLAG_AMT_ROOT
    writer = reference_header(PacketType.A1, packet.assoc_id, packet.seq)
    writer.u8(flags).u32(packet.ack_index).raw(packet.ack_element)
    writer.u32(packet.echo_sig_index).raw(packet.echo_sig_element)
    if flags & FLAG_PRE_ACK_PAIR:
        write_hash_list(writer, packet.pre_acks, h)
        write_hash_list(writer, packet.pre_nacks, h)
    if packet.amt_root is not None:
        writer.raw(packet.amt_root)
    return writer.getvalue()


def reference_s2(packet: S2Packet) -> bytes:
    writer = reference_header(PacketType.S2, packet.assoc_id, packet.seq)
    writer.u32(packet.disclosed_index).raw(packet.disclosed_element)
    writer.u16(packet.msg_index).var_bytes(packet.message)
    write_hash_list(writer, packet.auth_path, len(packet.disclosed_element))
    return writer.getvalue()


def reference_a2(packet: A2Packet) -> bytes:
    h = len(packet.disclosed_element)
    writer = reference_header(PacketType.A2, packet.assoc_id, packet.seq)
    writer.u32(packet.disclosed_index).raw(packet.disclosed_element)
    writer.u16(len(packet.verdicts))
    for verdict in packet.verdicts:
        writer.u16(verdict.msg_index).u8(1 if verdict.is_ack else 0)
        write_hash_list(writer.var_bytes(verdict.secret), verdict.path, h)
    return writer.getvalue()


_REFERENCES = {
    PacketType.S1: reference_s1,
    PacketType.A1: reference_a1,
    PacketType.S2: reference_s2,
    PacketType.A2: reference_a2,
}


def reference_encode(packet) -> bytes:
    """``packet.encode()`` as a field-by-field ``Writer`` write."""
    return _REFERENCES[packet.TYPE](packet)


def assert_same_encode(packet) -> None:
    try:
        want = reference_encode(packet)
    except (ValueError, PacketError, struct.error) as exc:
        with pytest.raises(Exception) as got:
            packet.encode()
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
    else:
        assert packet.encode() == want


# -- generated packets --------------------------------------------------------


def uints(bits: int, faults: bool):
    """Integers of a ``bits``-wide field; with ``faults``, one in four is
    one past either end of its range."""
    valid = st.integers(min_value=0, max_value=2**bits - 1)
    if not faults:
        return valid
    return st.one_of(valid, valid, valid, st.sampled_from([-1, 2**bits]))


def fixed_fields(h: int):
    """A fixed-width field: mostly ``h`` bytes, sometimes any width."""
    return st.binary(min_size=h, max_size=h) | st.binary(max_size=h + 4)


def items(h: int, faults: bool, min_size: int = 0, max_size: int = 6):
    """Hash-list items of width ``h``; with ``faults``, any width too."""
    item = st.binary(min_size=h, max_size=h)
    if faults:
        item = item | st.binary(max_size=h + 2)
    return st.lists(item, min_size=min_size, max_size=max_size)


messages = st.one_of(
    st.just(b""), st.binary(min_size=1, max_size=64), st.just(b"\x5a" * 0xFFFF)
)


@st.composite
def s1_packets(draw, h, faults):
    element = draw(fixed_fields(h) if faults else st.binary(min_size=h, max_size=h))
    return S1Packet(
        draw(uints(64, faults)), draw(uints(32, faults)),
        draw(st.sampled_from(list(Mode))), draw(uints(32, faults)), element,
        draw(items(len(element), faults)), draw(uints(16, faults)),
        draw(st.booleans()),
    )


@st.composite
def a1_packets(draw, h, faults):
    flags = draw(st.integers(min_value=0, max_value=3))
    acks = draw(items(h, faults))
    # Unpaired lists only with faults.
    nacks = draw(items(h, faults, 0 if faults else len(acks), len(acks) + faults))
    if not flags & FLAG_PRE_ACK_PAIR:
        acks, nacks = [], []
    return A1Packet(
        draw(uints(64, faults)), draw(uints(32, faults)), draw(uints(32, faults)),
        b"\x01" * h, draw(uints(32, faults)), draw(fixed_fields(h)), acks, nacks,
        draw(fixed_fields(h)) if flags & FLAG_AMT_ROOT else None,
    )


@st.composite
def s2_packets(draw, h, faults):
    element = draw(fixed_fields(h))
    message = draw(messages | st.just(b"\x5a" * 0x10000) if faults else messages)
    return S2Packet(
        draw(uints(64, faults)), draw(uints(32, faults)), draw(uints(32, faults)),
        element, draw(uints(16, faults)), message,
        draw(items(len(element), faults)),
    )


@st.composite
def a2_packets(draw, h, faults):
    element = draw(fixed_fields(h))
    secrets = st.binary(max_size=2 * h)
    if faults:
        secrets = secrets | st.just(b"\x33" * 0x10000)
    verdicts = st.builds(
        AckVerdict, msg_index=uints(16, faults), is_ack=st.booleans(),
        secret=secrets, path=items(len(element), faults, max_size=5),
    )
    return A2Packet(
        draw(uints(64, faults)), draw(uints(32, faults)), draw(uints(32, faults)),
        element, draw(st.lists(verdicts, max_size=4)),
    )


KINDS = (s1_packets, a1_packets, s2_packets, a2_packets)


@st.composite
def packets(draw, faults):
    h = draw(st.sampled_from(WIDTHS))
    return draw(draw(st.sampled_from(KINDS))(h, faults))


@settings(max_examples=400, deadline=None)
@given(packet=packets(faults=False))
def test_well_formed_packets_encode_as_the_reference(packet):
    assert_same_encode(packet)


@settings(max_examples=600, deadline=None)
@given(packet=packets(faults=True))
def test_faulty_packets_fail_as_the_reference(packet):
    assert_same_encode(packet)


# -- every A1 flag combination, every verdict count ---------------------------


#: The A1 flag bit that once announced a 16-byte ledger summary after
#: the packet's last field. No encoder sets it, and the summary it
#: announced is trailing bytes to the decoder.
RETIRED_BIT = 0x04


@pytest.mark.parametrize("h", WIDTHS)
@pytest.mark.parametrize("flags", range(8))
def test_every_a1_flag_combination(flags, h):
    pairs = [b"\x03" * h] * 3 if flags & FLAG_PRE_ACK_PAIR else []
    packet = A1Packet(
        7, 1, 3, b"\x01" * h, 5, b"\x02" * h, pairs, [b"\x04" * h] * len(pairs),
        b"\x05" * h if flags & FLAG_AMT_ROOT else None,
    )
    encoded = packet.encode()
    assert encoded[16] == flags & ~RETIRED_BIT
    assert_same_encode(packet)
    if flags & RETIRED_BIT:
        retired = encoded[:16] + bytes([flags]) + encoded[17:] + bytes(16)
        with pytest.raises(PacketError, match="16 trailing bytes"):
            decode_packet(retired, h)


@pytest.mark.parametrize("h", WIDTHS)
@pytest.mark.parametrize("count", range(5))
def test_a2_verdict_counts(count, h):
    verdicts = [
        AckVerdict(i, i % 2 == 0, bytes([i]) * (i * 5), [bytes([i]) * h] * i)
        for i in range(count)
    ]
    assert_same_encode(A2Packet(7, 1, 62, b"\x0f" * h, verdicts))


# -- each error case ----------------------------------------------------------

H = 20
E = b"\xee" * H
SHORT = b"\x01" * (H - 1)
TOO_MANY = [E] * 0x10000
TOO_LONG = b"\x5a" * 0x10000


def s1(assoc_id=1, seq=2, chain_index=63, element=E, sigs=(E,), count=1):
    return S1Packet(assoc_id, seq, Mode.BASE, chain_index, element, list(sigs), count)


def a1(acks=(), nacks=(), assoc_id=1, ack_index=63, echo_index=63):
    return A1Packet(assoc_id, 2, ack_index, E, echo_index, E, list(acks), list(nacks))


def s2(message=b"m", path=(), msg_index=0, disclosed_index=62, seq=2):
    return S2Packet(1, seq, disclosed_index, E, msg_index, message, list(path))


def a2(*verdicts, disclosed_index=62):
    return A2Packet(1, 2, disclosed_index, E, list(verdicts))


def verdict(msg_index=0, secret=b"s", path=()):
    return AckVerdict(msg_index, True, secret, list(path))


FAULTS = {
    # one fault each
    "s1-negative-seq": s1(seq=-1),
    "s1-assoc-past-64-bits": s1(assoc_id=2**64),
    "s1-index-past-32-bits": s1(chain_index=2**32),
    "s1-count-past-16-bits": s1(count=0x10000),
    "s1-sigs-past-16-bits": s1(sigs=TOO_MANY),
    "s1-short-sig": s1(sigs=(E, SHORT)),
    "s1-short-element": s1(element=SHORT),
    "a1-unpaired": a1([E], []),
    "a1-nacks-only": a1([], [E]),
    "a1-pairs-past-16-bits": a1(TOO_MANY, TOO_MANY),
    "a1-short-ack": a1([SHORT], [E]),
    "a1-short-nack": a1([E], [SHORT]),
    "a1-ack-index-negative": a1(ack_index=-1),
    "a1-echo-index-past-32-bits": a1(echo_index=2**32),
    "s2-message-past-16-bits": s2(message=TOO_LONG),
    "s2-path-past-16-bits": s2(path=TOO_MANY),
    "s2-short-path-item": s2(path=(E, SHORT)),
    "s2-msg-index-past-16-bits": s2(msg_index=0x10000),
    "a2-verdicts-past-16-bits": a2(*[verdict()] * 0x10000),
    "a2-secret-past-16-bits": a2(verdict(secret=TOO_LONG)),
    "a2-path-past-16-bits": a2(verdict(path=TOO_MANY)),
    "a2-short-path-item": a2(verdict(), verdict(path=(SHORT,))),
    "a2-msg-index-negative": a2(verdict(msg_index=-1)),
    "a2-disclosed-index-negative": a2(disclosed_index=-1),
    # two faults: the first in wire order decides
    "s1-seq-before-sigs": s1(seq=-1, sigs=TOO_MANY),
    "s1-count-before-sigs": s1(count=-1, sigs=(SHORT,)),
    "a1-pairing-before-index": a1([E], [], ack_index=-1),
    "a1-echo-index-before-pairs": a1(TOO_MANY, TOO_MANY, echo_index=-1),
    "s2-msg-index-before-message": s2(message=TOO_LONG, msg_index=-1),
    "s2-message-before-path": s2(message=TOO_LONG, path=TOO_MANY),
    "s2-seq-before-path-width": s2(seq=-1, path=(SHORT,)),
    "a2-path-width-before-next-verdict": a2(
        verdict(path=(SHORT,)), verdict(msg_index=-1)
    ),
    "a2-secret-before-path": a2(verdict(secret=TOO_LONG, path=TOO_MANY)),
    "a2-msg-index-before-secret": a2(verdict(msg_index=0x10000, secret=TOO_LONG)),
}


@pytest.mark.parametrize("packet", FAULTS.values(), ids=FAULTS.keys())
def test_each_fault_fails_as_the_reference(packet):
    with pytest.raises((ValueError, PacketError, struct.error)):
        reference_encode(packet)
    assert_same_encode(packet)


ODD = b"\x0e" * 3
WRONG_WIDTH = {
    "s1-short-element-and-sigs": s1(element=SHORT, sigs=(SHORT, SHORT)),
    "a1-odd-echo-and-empty-root": A1Packet(1, 2, 63, E, 63, ODD, amt_root=b""),
    "a1-short-ack-element": A1Packet(1, 2, 63, SHORT, 63, E, [SHORT], [SHORT]),
    "s2-odd-element-and-path": S2Packet(1, 2, 62, ODD, 0, b"m", [ODD]),
    "a2-long-element": A2Packet(1, 2, 62, E + ODD, [verdict(path=(E + ODD,))]),
}


@pytest.mark.parametrize("packet", WRONG_WIDTH.values(), ids=WRONG_WIDTH.keys())
def test_fixed_fields_of_any_width_join_unchecked(packet):
    reference_encode(packet)
    assert_same_encode(packet)
