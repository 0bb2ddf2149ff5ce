"""Reader properties: buffer-type independence (§14.2).

:class:`~repro.core.wire.Reader` accepts ``bytes``, ``bytearray`` and
``memoryview`` buffers; it keeps ``bytes`` as is and copies any other
buffer once. The buffer type must be observationally invisible.
Hypothesis drives three differential properties:

1. Decode agreement — ``decode_packet`` over a ``memoryview`` (plain,
   or a zero-copy window into a larger buffer) yields the identical
   packet object as decoding from ``bytes``.
2. Truncation agreement — every strict prefix raises the same typed
   error regardless of buffer type, and when that error is a
   :class:`~repro.core.exceptions.WireError`, the read geometry
   (offset / wanted / available) is identical too.
3. Primitive-sequence agreement — arbitrary op sequences against a
   reference *copying* reader (the pre-§14 implementation, kept here
   as an executable spec) produce bit-identical values and identical
   error behaviour. No ``IndexError``/``struct.error``/
   ``UnicodeDecodeError`` may ever escape, for any buffer type.

Plus pinned regression tests for the :class:`WireError` geometry
contract: a truncated read must report exactly where it was, what it
wanted, and what was left.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import PacketError, WireError
from repro.core.wire import Reader

from tests.properties.test_relay_intake import read_hash_list
from tests.properties.test_wire_roundtrip import H, any_packets
from repro.core.packets import decode_packet


class CopyingReader:
    """Executable spec: the pre-§14 reader that sliced eagerly.

    Every field is cut out of an immutable ``bytes`` copy of the input.
    The :class:`Reader` must be indistinguishable from this.
    """

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._offset = 0

    def _take(self, n: int) -> bytes:
        end = self._offset + n
        if end > len(self._data):
            raise WireError(self._offset, n, len(self._data) - self._offset)
        chunk = self._data[self._offset : end]
        self._offset = end
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self._take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "big")

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def var_bytes(self) -> bytes:
        return self._take(self.u16())


#: One step of a primitive-op script: (method name, args).
op_steps = st.one_of(
    st.tuples(st.sampled_from(["u8", "u16", "u32", "u64", "var_bytes"])).map(
        lambda t: (t[0], ())
    ),
    st.tuples(st.just("raw"), st.integers(min_value=0, max_value=40)).map(
        lambda t: (t[0], (t[1],))
    ),
)

#: Exceptions that must never escape the codec.
FOREIGN = (IndexError, UnicodeDecodeError, OverflowError, MemoryError)


def run_script(reader, script):
    """Apply a script; returns (values, error) with error geometry."""
    values = []
    for name, args in script:
        try:
            values.append(getattr(reader, name)(*args))
        except WireError as exc:
            return values, (type(exc), exc.offset, exc.wanted, exc.available)
    return values, None


def buffer_variants(payload: bytes):
    """The same octets behind every buffer type the codec accepts."""
    framed = b"\xAA" * 3 + payload + b"\xBB" * 5
    return [
        payload,
        bytearray(payload),
        memoryview(payload),
        memoryview(framed)[3 : 3 + len(payload)],
    ]


@given(packet=any_packets)
@settings(max_examples=150, deadline=None)
def test_decode_agrees_across_buffer_types(packet):
    encoded = packet.encode()
    reference = decode_packet(encoded, H)
    for buf in buffer_variants(encoded):
        assert decode_packet(buf, H) == reference


@given(packet=any_packets, data=st.data())
@settings(max_examples=100, deadline=None)
def test_truncation_same_typed_error_across_buffer_types(packet, data):
    encoded = packet.encode()
    cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
    prefix = encoded[:cut]
    outcomes = []
    for buf in buffer_variants(prefix):
        try:
            decode_packet(buf, H)
            pytest.fail("truncated packet decoded")
        except WireError as exc:
            outcomes.append((WireError, exc.offset, exc.wanted, exc.available))
        except PacketError as exc:
            outcomes.append((type(exc), str(exc)))
    assert len(set(outcomes)) == 1, outcomes


@given(packet=any_packets, data=st.data())
@settings(max_examples=150, deadline=None)
def test_bit_flip_memoryview_matches_bytes_behaviour(packet, data):
    encoded = bytearray(packet.encode())
    bit = data.draw(st.integers(min_value=0, max_value=len(encoded) * 8 - 1))
    encoded[bit // 8] ^= 1 << (bit % 8)
    flipped = bytes(encoded)
    try:
        reference = (True, decode_packet(flipped, H))
    except PacketError as exc:
        reference = (False, type(exc))
    for buf in buffer_variants(flipped)[1:]:
        try:
            assert (True, decode_packet(buf, H)) == reference
        except PacketError as exc:
            assert (False, type(exc)) == reference


@given(payload=st.binary(max_size=96), script=st.lists(op_steps, max_size=12))
@settings(max_examples=300, deadline=None)
def test_primitive_sequences_match_copying_reference(payload, script):
    ref_values, ref_error = run_script(CopyingReader(payload), script)
    for buf in buffer_variants(payload):
        try:
            values, error = run_script(Reader(buf), script)
        except FOREIGN as exc:  # pragma: no cover - the property under test
            pytest.fail(f"foreign exception escaped for {type(buf)}: {exc!r}")
        assert values == ref_values
        assert error == ref_error
        for value in values:
            if isinstance(value, bytes):
                assert type(value) is bytes
            elif isinstance(value, list):
                assert all(type(item) is bytes for item in value)


class TestWireErrorGeometry:
    """Pinned contract: WireError reports offset, wanted, available."""

    def test_take_underflow_at_start(self):
        with pytest.raises(WireError) as info:
            Reader(b"abc").raw(5)
        err = info.value
        assert (err.offset, err.wanted, err.available) == (0, 5, 3)
        assert "offset 0" in str(err)
        assert "wants 5 bytes" in str(err)
        assert "only 3 available" in str(err)

    def test_take_underflow_mid_buffer(self):
        reader = Reader(b"abcdef")
        reader.raw(4)
        with pytest.raises(WireError) as info:
            reader.u32()
        err = info.value
        assert (err.offset, err.wanted, err.available) == (4, 4, 2)

    def test_singular_byte_message(self):
        reader = Reader(b"")
        with pytest.raises(WireError, match=r"wants 1 byte\b") as info:
            reader.u8()
        assert (info.value.offset, info.value.wanted, info.value.available) == (
            0, 1, 0,
        )

    def test_var_bytes_reports_payload_field(self):
        # Length prefix says 300 bytes but only 2 follow: the error
        # points at the payload (offset 2), not the prefix.
        data = (300).to_bytes(2, "big") + b"xy"
        with pytest.raises(WireError) as info:
            Reader(data).var_bytes()
        err = info.value
        assert (err.offset, err.wanted, err.available) == (2, 300, 2)

    def test_hash_list_reports_first_nonfitting_element(self):
        # Three 20-byte hashes promised, 45 bytes supplied: elements 0
        # and 1 fit, element 2 starts at offset 2 + 40 with 5 left. The
        # decode differential's reference reads lists this way.
        data = (3).to_bytes(2, "big") + b"\x11" * 45
        with pytest.raises(WireError) as info:
            read_hash_list(Reader(data), 20)
        err = info.value
        assert (err.offset, err.wanted, err.available) == (42, 20, 5)

    def test_wire_error_is_packet_error(self):
        with pytest.raises(PacketError):
            Reader(b"").u64()
