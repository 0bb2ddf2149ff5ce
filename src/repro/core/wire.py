"""Binary codec helpers.

Small, explicit big-endian writer/reader pair. Variable-length fields
are 16-bit length-prefixed; hash lists are 16-bit counted with a fixed
element width. Reads validate bounds and raise
:class:`~repro.core.exceptions.WireError` (a
:class:`~repro.core.exceptions.PacketError`) on truncation so malformed
network input can never surface as an :class:`IndexError`.

Codec design (PROTOCOL.md §14.2): :class:`Writer` encodes the
handshakes, the baselines and the apps, and :class:`Reader` decodes
the same self-describing formats and serves
:func:`repro.core.packets.peek_type`. S1/A1/S2/A2 use neither: each
encodes with one precompiled ``Struct`` pack per run of integer fields
and one ``b"".join``, and decodes in one pass
(:func:`repro.core.packets.decode_packet`), raising the error this
writer or reader would. The reader holds its input as ``bytes`` -- the caller's
object itself when it already is ``bytes``, one copy otherwise -- so
every field it returns is immutable and outlives the datagram buffer
it came from. Integer fields use precompiled :class:`struct.Struct`
codecs: the writer packs each one, and the reader unpacks in place at
an explicit offset with ``unpack_from``.
"""

from __future__ import annotations

import struct

from repro.core.exceptions import PacketError, WireError

#: Precompiled big-endian integer codecs, shared by Writer and Reader.
#: Compiling once removes the per-call format-string parse of
#: ``struct.pack(">H", ...)``.
U8 = struct.Struct(">B")
U16 = struct.Struct(">H")
U32 = struct.Struct(">I")
U64 = struct.Struct(">Q")


class Writer:
    """Append-only big-endian byte builder."""

    __slots__ = ("_parts",)

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> "Writer":
        self._parts.append(U8.pack(value))
        return self

    def u16(self, value: int) -> "Writer":
        self._parts.append(U16.pack(value))
        return self

    def u32(self, value: int) -> "Writer":
        self._parts.append(U32.pack(value))
        return self

    def u64(self, value: int) -> "Writer":
        self._parts.append(U64.pack(value))
        return self

    def raw(self, data: bytes) -> "Writer":
        """Fixed-width field; the width is implied by the protocol."""
        self._parts.append(data)
        return self

    def var_bytes(self, data: bytes) -> "Writer":
        """16-bit length-prefixed byte string (max 65535 bytes)."""
        if len(data) > 0xFFFF:
            raise ValueError(f"var_bytes field too long: {len(data)}")
        self._parts.append(U16.pack(len(data)))
        self._parts.append(data)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Bounds-checked big-endian byte consumer.

    The input is held as ``bytes``: a ``bytes`` argument is kept as is,
    and a ``bytearray`` or ``memoryview`` is copied once, so no decoded
    field can alias a mutable or short-lived buffer. Integers are
    unpacked in place at the running offset; ``raw`` and ``var_bytes``
    return ``bytes`` slices.
    """

    __slots__ = ("_data", "_len", "_offset")

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data = bytes(data)
        self._len = len(data)
        self._offset = offset

    def _take(self, n: int) -> bytes:
        offset = self._offset
        end = offset + n
        if end > self._len:
            raise WireError(offset, n, self._len - offset)
        self._offset = end
        return self._data[offset:end]

    def u8(self) -> int:
        offset = self._offset
        if offset >= self._len:
            raise WireError(offset, 1, 0)
        self._offset = offset + 1
        return self._data[offset]

    def u16(self) -> int:
        offset = self._offset
        if offset + 2 > self._len:
            raise WireError(offset, 2, self._len - offset)
        self._offset = offset + 2
        return U16.unpack_from(self._data, offset)[0]

    def u32(self) -> int:
        offset = self._offset
        if offset + 4 > self._len:
            raise WireError(offset, 4, self._len - offset)
        self._offset = offset + 4
        return U32.unpack_from(self._data, offset)[0]

    def u64(self) -> int:
        offset = self._offset
        if offset + 8 > self._len:
            raise WireError(offset, 8, self._len - offset)
        self._offset = offset + 8
        return U64.unpack_from(self._data, offset)[0]

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def var_bytes(self) -> bytes:
        return self._take(self.u16())

    def expect_end(self) -> None:
        """Raise unless every byte has been consumed."""
        if self._offset != self._len:
            raise PacketError(
                f"{self._len - self._offset} trailing bytes after packet"
            )

    @property
    def remaining(self) -> int:
        return self._len - self._offset
