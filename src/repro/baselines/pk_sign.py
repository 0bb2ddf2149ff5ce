"""Per-packet public-key signatures.

The heavyweight alternative (paper Section 1): every packet carries an
RSA/DSA/ECDSA signature that anyone — including every relay — can
verify. Functionally it dominates ALPHA (immediate verification, no
interaction), but Table 4 shows why it is "prohibitive for per-packet
verification in the vast majority of multi-hop scenarios": a single
RSA-1024 signature costs the Nokia 770 ~181 ms where the whole ALPHA
exchange costs ~2.3 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.wire import Reader, Writer
from repro.crypto.signatures import SignatureScheme, verify_public_blob


@dataclass
class PkVerified:
    seq: int
    message: bytes


class PkSigner:
    """Sender side: sign every packet with the host identity key."""

    def __init__(self, identity: SignatureScheme) -> None:
        self._identity = identity
        self._seq = 0

    def protect(self, message: bytes) -> bytes:
        writer = Writer()
        writer.u32(self._seq)
        self._seq += 1
        writer.var_bytes(message)
        body = writer.getvalue()
        signature = self._identity.sign(body)
        out = Writer()
        out.raw(body)
        out.var_bytes(signature)
        return out.getvalue()

    def public_blob(self) -> bytes:
        return self._identity.public_blob()


class PkVerifier:
    """Receiver or relay side: verify against a known public key."""

    def __init__(self, public_blob: bytes) -> None:
        self._public_blob = public_blob
        self._seen: set[int] = set()
        self.verified: list[PkVerified] = []
        self.rejected = 0

    def verify(self, packet: bytes) -> PkVerified | None:
        try:
            reader = Reader(packet)
            seq = reader.u32()
            message = reader.var_bytes()
            body_len = 4 + 2 + len(message)
            signature = reader.var_bytes()
            reader.expect_end()
        except Exception:
            self.rejected += 1
            return None
        body = packet[:body_len]
        if not verify_public_blob(self._public_blob, body, signature):
            self.rejected += 1
            return None
        if seq in self._seen:
            self.rejected += 1
            return None
        self._seen.add(seq)
        verified = PkVerified(seq, message)
        self.verified.append(verified)
        return verified

    @staticmethod
    def relay_can_verify() -> bool:
        """Anyone with the public key can verify — including relays."""
        return True
