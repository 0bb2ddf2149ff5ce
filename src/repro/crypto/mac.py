"""HMAC per RFC 2104, generic over this package's hash functions.

The paper protects message bodies with "a keyed-Hash Message
Authentication Code (HMAC) [3]" whose key is an undisclosed hash-chain
element. :func:`hmac_raw` implements HMAC from its definition, so the
construction also works where :mod:`hmac` cannot: over the
Matyas–Meyer–Oseas hash (16-byte block size), over the pure-Python
SHA-1 (``sha1p``), and over truncated variants such as ``sha1-8``,
whose inner hash is truncated too. :meth:`HashFunction.mac` runs
untruncated ``sha1`` and ``sha256`` through the standard library's C
HMAC instead, which yields the same bytes.
"""

from __future__ import annotations

import hmac
from typing import Callable

from repro.crypto.hashes import HashFunction, get_hash

_IPAD = 0x36
_OPAD = 0x5C


def hmac_raw(
    raw_hash: Callable[[bytes], bytes],
    block_size: int,
    key: bytes,
    message: bytes,
) -> bytes:
    """Compute HMAC given a raw hash callable and its block size."""
    if len(key) > block_size:
        key = raw_hash(key)
    key = key.ljust(block_size, b"\x00")
    inner = raw_hash(bytes(k ^ _IPAD for k in key) + message)
    return raw_hash(bytes(k ^ _OPAD for k in key) + inner)


def hmac_digest(hash_name: str, key: bytes, message: bytes) -> bytes:
    """One-shot HMAC over the named hash (uncounted convenience form)."""
    fn = get_hash(hash_name)
    return hmac_raw(fn.digest_uncounted, fn.block_size, key, message)


class HmacFunction:
    """A reusable HMAC bound to a :class:`HashFunction`.

    Calls are counted on the hash function's operation counter as MAC
    operations, matching the paper's Table 1 convention where MACs over
    variable-length messages are tallied separately (the ``*`` entries).
    """

    def __init__(self, hash_function: HashFunction) -> None:
        self._hash = hash_function

    @property
    def digest_size(self) -> int:
        return self._hash.digest_size

    def compute(self, key: bytes, message: bytes, label: str | None = None) -> bytes:
        return self._hash.mac(key, message, label)

    def verify(self, key: bytes, message: bytes, tag: bytes, label: str | None = None) -> bool:
        """Constant-time comparison of a recomputed tag against ``tag``."""
        return hmac.compare_digest(self.compute(key, message, label), tag)
