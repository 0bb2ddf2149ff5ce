"""Hash front-end with built-in operation counting.

ALPHA's evaluation (Table 1 of the paper) counts hash computations per
processed message for each protocol role. To *measure* those counts
instead of merely recomputing the paper's formulas, every hash invocation
in this code base goes through a :class:`HashFunction` bound to an
:class:`OpCounter`. Engines own their counters, so per-node and per-role
accounting falls out naturally.

Available algorithms:

``sha1``
    SHA-1 via :mod:`hashlib` (20-byte digests, the paper's default).
``sha256``
    SHA-256 via :mod:`hashlib` (32-byte digests).
``mmo``
    The Matyas–Meyer–Oseas construction over our pure-Python AES-128
    (16-byte digests, the paper's WSN hash, Section 4.1.3).
``sha1-8`` / ``sha1-16`` …
    Truncated variants, e.g. for constrained-bandwidth experiments.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class OpCounter:
    """Tallies cryptographic work.

    The distinction between fixed-size hash operations and variable-size
    MAC operations mirrors the paper's Table 1, where entries marked with
    an asterisk are MAC computations over whole messages and everything
    else operates on one or two hash outputs.
    """

    hash_ops: int = 0
    hash_bytes: int = 0
    mac_ops: int = 0
    mac_bytes: int = 0
    pk_signs: int = 0
    pk_verifies: int = 0
    labels: dict = field(default_factory=dict)

    def record_hash(self, nbytes: int, label: str | None = None) -> None:
        self.hash_ops += 1
        self.hash_bytes += nbytes
        if label is not None:
            self.labels[label] = self.labels.get(label, 0) + 1

    def record_hash_batch(
        self, count: int, nbytes: int, label: str | None = None
    ) -> None:
        """Charge ``count`` fixed-input hashes in one call.

        Bulk accounting for tight loops (chain construction, gap walks)
        that call the raw hash directly: the tallies are identical to
        ``count`` individual :meth:`record_hash` calls, without the
        per-call attribute and dict traffic on the hot path.
        """
        if count <= 0:
            return
        self.hash_ops += count
        self.hash_bytes += nbytes
        if label is not None:
            self.labels[label] = self.labels.get(label, 0) + count

    def record_mac(self, nbytes: int, label: str | None = None) -> None:
        self.mac_ops += 1
        self.mac_bytes += nbytes
        if label is not None:
            self.labels[label] = self.labels.get(label, 0) + 1

    def record_pk_sign(self) -> None:
        self.pk_signs += 1

    def record_pk_verify(self) -> None:
        self.pk_verifies += 1

    def reset(self) -> None:
        self.hash_ops = 0
        self.hash_bytes = 0
        self.mac_ops = 0
        self.mac_bytes = 0
        self.pk_signs = 0
        self.pk_verifies = 0
        self.labels.clear()

    def snapshot(self) -> "OpCounter":
        """Return an independent copy of the current tallies."""
        return OpCounter(
            hash_ops=self.hash_ops,
            hash_bytes=self.hash_bytes,
            mac_ops=self.mac_ops,
            mac_bytes=self.mac_bytes,
            pk_signs=self.pk_signs,
            pk_verifies=self.pk_verifies,
            labels=dict(self.labels),
        )

    def diff(self, earlier: "OpCounter") -> "OpCounter":
        """Return the tallies accumulated since ``earlier`` was snapshot."""
        labels = {
            key: count - earlier.labels.get(key, 0)
            for key, count in self.labels.items()
            if count - earlier.labels.get(key, 0)
        }
        return OpCounter(
            hash_ops=self.hash_ops - earlier.hash_ops,
            hash_bytes=self.hash_bytes - earlier.hash_bytes,
            mac_ops=self.mac_ops - earlier.mac_ops,
            mac_bytes=self.mac_bytes - earlier.mac_bytes,
            pk_signs=self.pk_signs - earlier.pk_signs,
            pk_verifies=self.pk_verifies - earlier.pk_verifies,
            labels=labels,
        )

    @property
    def total_ops(self) -> int:
        return self.hash_ops + self.mac_ops


class HashFunction:
    """A named hash algorithm bound to an operation counter.

    Instances are cheap; engines typically create one per node via
    :func:`get_hash` so their counters are independent.
    """

    def __init__(
        self,
        name: str,
        digest_size: int,
        raw: Callable[[bytes], bytes],
        counter: OpCounter | None = None,
    ) -> None:
        self.name = name
        self.digest_size = digest_size
        self._raw = raw
        self.counter = counter if counter is not None else OpCounter()
        self.block_size = _BLOCK_SIZES.get(name.split("-")[0], 64)
        # Untruncated hashlib-backed hashes MAC through the C HMAC; see
        # :meth:`mac` for why every other variant cannot.
        self._stdlib_hmac = name if name in _STDLIB_HMAC else None

    def digest(self, data: bytes, label: str | None = None) -> bytes:
        """Hash ``data``, counting one fixed-input hash operation."""
        self.counter.record_hash(len(data), label)
        return self._raw(data)

    @property
    def raw(self) -> Callable[[bytes], bytes]:
        """The bare digest callable, for counted tight loops.

        Callers looping over ``raw`` must charge the counter themselves
        via :meth:`OpCounter.record_hash_batch` — the pairing that keeps
        Table 1 accounting exact while the loop body stays two calls
        (concat, hash). For uncounted meta-uses prefer
        :meth:`digest_uncounted`, which documents the exemption.
        """
        return self._raw

    def digest_uncounted(self, data: bytes) -> bytes:
        """Hash ``data`` without touching the counter.

        Reserved for meta-uses such as deriving identifiers, where the
        paper's accounting would not charge a hash operation.
        """
        return self._raw(data)

    def mac(self, key: bytes, message: bytes, label: str | None = None) -> bytes:
        """Keyed MAC of ``message``, counted as one variable-input MAC op.

        ALPHA keys its MACs with undisclosed hash-chain elements; we use
        HMAC over the bound hash algorithm (the paper names HMAC [3] as
        its MAC). ``sha1`` and ``sha256`` run the standard library's C
        HMAC, which is byte-identical. Every other variant runs the
        from-definition :func:`~repro.crypto.mac.hmac_raw`: the standard
        library knows neither MMO nor the pure-Python SHA-1, and HMAC
        over a *truncated* inner hash is a different function from
        stdlib HMAC (the golden corpus pins those bytes).
        """
        self.counter.record_mac(len(message), label)
        if self._stdlib_hmac is not None:
            return hmac.digest(key, message, self._stdlib_hmac)
        from repro.crypto.mac import hmac_raw

        return hmac_raw(self._raw, self.block_size, key, message)

    def with_counter(self, counter: OpCounter) -> "HashFunction":
        """Return a sibling bound to a different counter."""
        return HashFunction(self.name, self.digest_size, self._raw, counter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashFunction(name={self.name!r}, digest_size={self.digest_size})"


def _sha1_raw(data: bytes) -> bytes:
    return hashlib.sha1(data).digest()


def _sha256_raw(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _mmo_raw(data: bytes) -> bytes:
    from repro.crypto.mmo import mmo_digest

    return mmo_digest(data)


def _sha1_pure_raw(data: bytes) -> bytes:
    from repro.crypto.sha1 import sha1_digest

    return sha1_digest(data)


_BLOCK_SIZES = {"sha1": 64, "sha256": 64, "mmo": 16, "sha1p": 64}
#: Names whose HMAC :meth:`HashFunction.mac` delegates to :func:`hmac.digest`.
_STDLIB_HMAC = frozenset({"sha1", "sha256"})

_ALGORITHMS: dict[str, tuple[int, Callable[[bytes], bytes]]] = {
    "sha1": (20, _sha1_raw),
    "sha256": (32, _sha256_raw),
    "mmo": (16, _mmo_raw),
    # The from-scratch SHA-1 (repro.crypto.sha1); byte-identical to
    # "sha1" but an order of magnitude slower — for cross-validation
    # and no-hashlib environments.
    "sha1p": (20, _sha1_pure_raw),
}


def available_hashes() -> list[str]:
    """Names accepted by :func:`get_hash` (untruncated forms)."""
    return sorted(_ALGORITHMS)


def get_hash(name: str, counter: OpCounter | None = None) -> HashFunction:
    """Build a :class:`HashFunction` by name.

    ``name`` may carry a truncation suffix: ``"sha1-8"`` is SHA-1
    truncated to 8 bytes. Truncation keeps the leftmost bytes, the
    conventional choice for hash-chain protocols on constrained links.
    """
    base, sep, suffix = name.partition("-")
    if base not in _ALGORITHMS:
        raise ValueError(f"unknown hash algorithm: {name!r}")
    digest_size, raw = _ALGORITHMS[base]
    if sep:
        truncated = int(suffix)
        if not 1 <= truncated <= digest_size:
            raise ValueError(
                f"truncation {truncated} out of range 1..{digest_size} for {base}"
            )
        full_raw = raw
        raw = lambda data: full_raw(data)[:truncated]  # noqa: E731
        digest_size = truncated
    return HashFunction(name, digest_size, raw, counter)
