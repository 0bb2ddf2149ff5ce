"""Conventional end-to-end HMAC integrity protection.

The scheme ALPHA is designed to replace (paper Section 1): a shared
secret between the two end hosts, one HMAC per packet. Verification is
immediate and cheap — but forwarding nodes hold no key material, so a
relay can neither verify nor filter, and sharing the key with relays
would let a malicious relay forge traffic. The attack benchmarks use
this engine to demonstrate exactly that gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.wire import Reader, Writer
from repro.crypto.hashes import HashFunction


@dataclass
class HmacVerified:
    seq: int
    message: bytes


class HmacEndToEnd:
    """Both sides of a shared-secret HMAC channel."""

    def __init__(self, hash_fn: HashFunction, key: bytes) -> None:
        if not key:
            raise ValueError("key must be non-empty")
        self._hash = hash_fn
        self._key = key
        self._send_seq = 0
        self._seen: set[int] = set()
        self.verified: list[HmacVerified] = []
        self.rejected = 0

    def protect(self, message: bytes) -> bytes:
        """Wrap ``message`` with a sequence number and HMAC tag."""
        seq = self._send_seq
        self._send_seq += 1
        writer = Writer()
        writer.u32(seq)
        writer.var_bytes(message)
        body = writer.getvalue()
        tag = self._hash.mac(self._key, body, label="hmac-e2e")
        return body + tag

    def verify(self, packet: bytes) -> HmacVerified | None:
        """Check a packet; returns the message or None (replays count)."""
        h = self._hash.digest_size
        if len(packet) <= h:
            self.rejected += 1
            return None
        body, tag = packet[:-h], packet[-h:]
        if self._hash.mac(self._key, body, label="hmac-e2e") != tag:
            self.rejected += 1
            return None
        reader = Reader(body)
        seq = reader.u32()
        message = reader.var_bytes()
        if seq in self._seen:
            self.rejected += 1
            return None
        self._seen.add(seq)
        verified = HmacVerified(seq, message)
        self.verified.append(verified)
        return verified

    @staticmethod
    def relay_can_verify() -> bool:
        """Relays hold no key: hop-by-hop verification is impossible."""
        return False
