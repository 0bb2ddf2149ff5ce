"""Wire-format property tests: encode/decode round-trips exactly.

Hypothesis generates structurally valid instances of *every* packet
type (HS1, HS2, S1, A1, S2, A2) and asserts:

1. Round trip — ``decode_packet(p.encode(), h) == p`` field for field.
2. Truncation safety — every strict prefix of a valid encoding is
   rejected with :class:`~repro.core.exceptions.PacketError`.
3. Damage safety — flipping any single bit either still decodes to
   *some* packet or raises :class:`PacketError`; no other exception
   type ever escapes the parser (no ``struct.error``, ``IndexError``,
   ``UnicodeDecodeError``, ...).
4. Trailing garbage is rejected (``expect_end``), also behind the
   A1/handshake flag bit that once announced a 16-byte ledger summary.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings, strategies as st

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
)

#: Digest width used by every generated packet (SHA-1-sized; the codec
#: only cares that encode and decode agree on it).
H = 20

hashes = st.binary(min_size=H, max_size=H)
assoc_ids = st.integers(min_value=0, max_value=2**64 - 1)
seqs = st.integers(min_value=0, max_value=2**32 - 1)
u32s = st.integers(min_value=0, max_value=2**32 - 1)
u16s = st.integers(min_value=0, max_value=2**16 - 1)
payloads = st.binary(max_size=64)

#: Flag bits (in the byte after the header) that once announced a
#: 16-byte ledger summary after an A1 or a handshake. Decoders ignore
#: them, so the old summary is trailing garbage like any other.
RETIRED_BITS = {PacketType.A1: 0x04, PacketType.HS1: 0x02, PacketType.HS2: 0x02}


@st.composite
def s1_packets(draw):
    mode = draw(st.sampled_from(list(Mode)))
    message_count = draw(st.integers(min_value=1, max_value=8))
    if mode is Mode.MERKLE:
        n_sigs = 1
    elif mode is Mode.MERKLE_CUMULATIVE:
        n_sigs = draw(st.integers(min_value=1, max_value=message_count))
    else:
        n_sigs = message_count
    return S1Packet(
        assoc_id=draw(assoc_ids),
        seq=draw(seqs),
        mode=mode,
        chain_index=draw(u32s),
        chain_element=draw(hashes),
        pre_signatures=draw(
            st.lists(hashes, min_size=n_sigs, max_size=n_sigs)
        ),
        message_count=message_count,
        reliable=draw(st.booleans()),
    )


@st.composite
def a1_packets(draw):
    n_pairs = draw(st.integers(min_value=0, max_value=6))
    return A1Packet(
        assoc_id=draw(assoc_ids),
        seq=draw(seqs),
        ack_index=draw(u32s),
        ack_element=draw(hashes),
        echo_sig_index=draw(u32s),
        echo_sig_element=draw(hashes),
        pre_acks=draw(st.lists(hashes, min_size=n_pairs, max_size=n_pairs)),
        pre_nacks=draw(st.lists(hashes, min_size=n_pairs, max_size=n_pairs)),
        amt_root=draw(st.none() | hashes),
    )


@st.composite
def s2_packets(draw):
    return S2Packet(
        assoc_id=draw(assoc_ids),
        seq=draw(seqs),
        disclosed_index=draw(u32s),
        disclosed_element=draw(hashes),
        msg_index=draw(u16s),
        message=draw(payloads),
        auth_path=draw(st.lists(hashes, max_size=6)),
    )


@st.composite
def a2_packets(draw):
    verdicts = draw(
        st.lists(
            st.builds(
                AckVerdict,
                msg_index=u16s,
                is_ack=st.booleans(),
                secret=st.binary(max_size=32),
                path=st.lists(hashes, max_size=4),
            ),
            max_size=5,
        )
    )
    return A2Packet(
        assoc_id=draw(assoc_ids),
        seq=draw(seqs),
        disclosed_index=draw(u32s),
        disclosed_element=draw(hashes),
        verdicts=verdicts,
    )


@st.composite
def handshake_packets(draw):
    nonce = draw(st.binary(min_size=8, max_size=32))
    return HandshakePacket(
        assoc_id=draw(assoc_ids),
        seq=draw(seqs),
        is_response=draw(st.booleans()),
        hash_name=draw(
            st.text(
                alphabet=string.ascii_lowercase + string.digits + "-",
                min_size=1,
                max_size=16,
            )
        ),
        nonce=nonce,
        sig_anchor=draw(st.binary(min_size=1, max_size=32)),
        sig_chain_length=draw(u32s),
        ack_anchor=draw(st.binary(min_size=1, max_size=32)),
        ack_chain_length=draw(u32s),
        peer_nonce=draw(st.just(b"") | st.binary(min_size=8, max_size=32)),
        public_key=draw(st.binary(max_size=64)),
        signature=draw(st.binary(max_size=64)),
    )


any_packets = st.one_of(
    s1_packets(), a1_packets(), s2_packets(), a2_packets(), handshake_packets()
)


@given(packet=any_packets)
@settings(max_examples=200, deadline=None)
def test_roundtrip_every_packet_type(packet):
    assert decode_packet(packet.encode(), H) == packet


@given(packet=any_packets, data=st.data())
@settings(max_examples=100, deadline=None)
def test_truncation_always_raises_packet_error(packet, data):
    encoded = packet.encode()
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    with pytest.raises(PacketError):
        decode_packet(encoded[:cut], H)


@given(packet=any_packets)
@settings(max_examples=25, deadline=None)
def test_every_prefix_rejected(packet):
    """Exhaustive sweep: no prefix length slips through the parser."""
    encoded = packet.encode()
    for cut in range(len(encoded)):
        with pytest.raises(PacketError):
            decode_packet(encoded[:cut], H)


@given(packet=any_packets, data=st.data())
@settings(max_examples=200, deadline=None)
def test_bit_flip_raises_only_packet_error(packet, data):
    encoded = bytearray(packet.encode())
    bit = data.draw(st.integers(min_value=0, max_value=len(encoded) * 8 - 1))
    encoded[bit // 8] ^= 1 << (bit % 8)
    try:
        decode_packet(bytes(encoded), H)
    except PacketError:
        pass  # typed rejection is the contract


@given(
    packet=any_packets,
    garbage=st.binary(min_size=1, max_size=16),
    retired=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_trailing_garbage_rejected(packet, garbage, retired):
    """With ``retired``, the flag bit that once announced a summary is
    set too: the garbage stands where the summary stood."""
    data = bytearray(packet.encode() + garbage)
    if retired:
        data[16] |= RETIRED_BITS.get(packet.TYPE, 0)
    with pytest.raises(PacketError):
        decode_packet(bytes(data), H)
