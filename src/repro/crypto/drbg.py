"""Deterministic random byte generation.

All randomness in the reproduction flows through a :class:`DRBG` so that
protocol runs, simulations, and benchmarks are reproducible from a seed.
The construction is an HMAC-DRBG in the spirit of NIST SP 800-90A,
instantiated with SHA-256: not certified, but deterministic, well mixed,
and free of external dependencies.
"""

from __future__ import annotations

import hashlib
import os

from repro.crypto.hashes import IPAD, OPAD

_DIGEST = hashlib.sha256
_DIGEST_SIZE = 32
_BLOCK_SIZE = 64


class DRBG:
    """HMAC-based deterministic random byte generator.

    Parameters
    ----------
    seed:
        Entropy input. Equal seeds produce equal output streams.
    personalization:
        Optional domain-separation string so independent components
        seeded from the same master seed produce independent streams.
    """

    def __init__(self, seed: bytes | int | str, personalization: bytes = b"") -> None:
        if isinstance(seed, int):
            seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big", signed=False)
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        self._key = b"\x00" * _DIGEST_SIZE
        self._value = b"\x01" * _DIGEST_SIZE
        self._reseed_counter = 0
        self._update(seed + b"|" + personalization)

    def _hmac(self, key: bytes, data: bytes) -> bytes:
        # RFC 2104 HMAC-SHA256 over hashlib, byte-identical to
        # hmac.new(key, data, "sha256"). Keys are always 32-byte digests
        # here, never longer than the block, so no key pre-hash.
        key = key.ljust(_BLOCK_SIZE, b"\x00")
        inner = _DIGEST(key.translate(IPAD))
        inner.update(data)
        return _DIGEST(key.translate(OPAD) + inner.digest()).digest()

    def _update(self, provided: bytes = b"") -> None:
        self._key = self._hmac(self._key, self._value + b"\x00" + provided)
        self._value = self._hmac(self._key, self._value)
        if provided:
            self._key = self._hmac(self._key, self._value + b"\x01" + provided)
            self._value = self._hmac(self._key, self._value)

    def random_bytes(self, n: int) -> bytes:
        """Return ``n`` pseudo-random bytes.

        The key is fixed for the whole request, so a request of more
        than one 32-byte block builds its two keyed SHA-256 states once
        and copies them for each block: a block costs two state copies
        and two compressions, not two pad translations and two fresh
        constructors. One block is one plain HMAC.
        """
        if n < 0:
            raise ValueError("byte count must be non-negative")
        if n <= _DIGEST_SIZE:
            if n:
                self._value = self._hmac(self._key, self._value)
            out = self._value
        else:
            key = self._key.ljust(_BLOCK_SIZE, b"\x00")
            inner_key = _DIGEST(key.translate(IPAD))
            outer_key = _DIGEST(key.translate(OPAD))
            value = self._value
            blocks = []
            for _ in range(-(-n // _DIGEST_SIZE)):
                inner = inner_key.copy()
                inner.update(value)
                outer = outer_key.copy()
                outer.update(inner.digest())
                value = outer.digest()
                blocks.append(value)
            self._value = value
            out = b"".join(blocks)
        self._update()
        self._reseed_counter += 1
        return out[:n]

    def random_int(self, bits: int) -> int:
        """Return a uniform integer with exactly ``bits`` significant bits."""
        if bits <= 0:
            raise ValueError("bit count must be positive")
        nbytes = (bits + 7) // 8
        value = int.from_bytes(self.random_bytes(nbytes), "big")
        value &= (1 << bits) - 1
        value |= 1 << (bits - 1)
        return value

    def random_below(self, bound: int) -> int:
        """Return a uniform integer in ``[0, bound)`` by rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        while True:
            nbytes = (bits + 7) // 8
            value = int.from_bytes(self.random_bytes(nbytes), "big")
            value &= (1 << bits) - 1
            if value < bound:
                return value

    def random_range(self, low: int, high: int) -> int:
        """Return a uniform integer in ``[low, high)``."""
        if high <= low:
            raise ValueError("empty range")
        return low + self.random_below(high - low)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Return a float uniform in ``[low, high)`` with 53 bits of entropy."""
        mantissa = int.from_bytes(self.random_bytes(7), "big") >> 3
        return low + (high - low) * (mantissa / float(1 << 53))

    def expovariate(self, rate: float) -> float:
        """Return an exponentially distributed float with the given rate."""
        import math

        if rate <= 0:
            raise ValueError("rate must be positive")
        u = self.uniform()
        # Guard against log(0); uniform() can return exactly 0.0.
        while u <= 0.0:
            u = self.uniform()
        return -math.log(u) / rate

    def choice(self, seq):
        """Return a uniformly chosen element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.random_below(len(seq))]

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place (Fisher–Yates)."""
        for i in range(len(items) - 1, 0, -1):
            j = self.random_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def fork(self, label: bytes | str) -> "DRBG":
        """Derive an independent child generator for a subcomponent."""
        if isinstance(label, str):
            label = label.encode("utf-8")
        return DRBG(self.random_bytes(_DIGEST_SIZE), personalization=label)


class SystemRandomSource:
    """Thin adapter exposing ``os.urandom`` behind the DRBG interface.

    Used where a caller explicitly opts out of determinism (never inside
    the simulator).
    """

    def random_bytes(self, n: int) -> bytes:
        return os.urandom(n)

    def random_below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        bits = bound.bit_length()
        while True:
            value = int.from_bytes(os.urandom((bits + 7) // 8), "big")
            value &= (1 << bits) - 1
            if value < bound:
                return value
