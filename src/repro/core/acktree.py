"""Acknowledgment Merkle Trees (paper Section 3.3.3, Figure 7).

With ALPHA-M a single S1 covers ``n`` messages, so the verifier needs a
way to selectively (n)ack each one without pre-committing ``2n`` flat
hash values. The AMT is a Merkle tree with ``2n`` leaves: the left half
holds acknowledgment leaves, the right half negative-acknowledgment
leaves. Each leaf is ``H(x_i | s_i)`` where ``x_i`` identifies the
message and ``s_i`` is a per-leaf secret; the root is keyed with the
verifier's next undisclosed acknowledgment-chain element:

    root = H(ack_root | nack_root | h^Va_{i-1})

The verifier commits to the root in its A1 packet. After each S2 it
opens exactly one leaf — ack leaf ``j`` if the block verified, nack leaf
``j`` otherwise — by disclosing ``(x_j, s_j, {Bc})`` in an A2. The
secrets prevent deriving an ack from a nack (or any unopened leaf) even
after the chain element is disclosed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.merkle import (
    MerkleTree,
    MerkleVerifyCache,
    tree_depth,
    verify_merkle_path,
)
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import HashFunction

_SECRET_SIZE = 16


def _leaf_blob(msg_index: int, secret: bytes) -> bytes:
    return msg_index.to_bytes(4, "big") + secret


@dataclass(frozen=True)
class AckOpening:
    """One disclosed AMT leaf, carried in an A2 packet."""

    msg_index: int
    is_ack: bool
    secret: bytes
    path: list[bytes]


class AckTree:
    """Verifier-side AMT: builds the tree and opens leaves on demand.

    Implementation note: the keyed :class:`MerkleTree` already provides
    exactly the structure Figure 7 requires if we lay the ``2n`` leaves
    out as ``[ack_0 .. ack_{n-1}, nack_0 .. nack_{n-1}]`` — the key
    takes the role of ``h^Va_{i-1}`` at the root combine, and a leaf's
    half determines its meaning.
    """

    def __init__(
        self,
        hash_fn: HashFunction,
        n_messages: int,
        key: bytes,
        rng: DRBG,
    ) -> None:
        if n_messages < 1:
            raise ValueError("an AckTree needs at least one message")
        self._hash = hash_fn
        self.n_messages = n_messages
        self._key = key
        # Fresh secrets per tree thwart replay across exchanges
        # (paper Section 3.2.2, last paragraph).
        self._secrets = [rng.random_bytes(_SECRET_SIZE) for _ in range(2 * n_messages)]
        blobs = [
            _leaf_blob(i % n_messages, self._secrets[i]) for i in range(2 * n_messages)
        ]
        self._tree = MerkleTree(hash_fn, blobs, label_prefix="amt")
        self.root = self._tree.root(key)

    def open(self, msg_index: int, is_ack: bool) -> AckOpening:
        """Disclose the (n)ack leaf for one message."""
        if not 0 <= msg_index < self.n_messages:
            raise IndexError(
                f"message index {msg_index} out of range 0..{self.n_messages - 1}"
            )
        leaf = msg_index if is_ack else self.n_messages + msg_index
        return AckOpening(
            msg_index=msg_index,
            is_ack=is_ack,
            secret=self._secrets[leaf],
            path=self._tree.path(leaf),
        )


def verify_ack_opening(
    hash_fn: HashFunction,
    opening: AckOpening,
    n_messages: int,
    key: bytes,
    expected_root: bytes,
    cache: MerkleVerifyCache | None = None,
) -> bool:
    """Signer/relay-side check of a disclosed (n)ack leaf.

    The leaf position encodes the ack/nack meaning, so an attacker
    cannot replay an ack opening as a nack: the recomputed root would
    differ. The path must be as long as a ``2n``-leaf tree is deep: one
    sibling short, a leaf blob that is an inner node's preimage would
    fold to the root.

    With the exchange's :class:`~repro.core.merkle.MerkleVerifyCache`
    the fold stops at the first node an earlier opening proved under
    ``expected_root`` (PROTOCOL.md §14.3).

    ``opening`` is read only for ``msg_index``, ``is_ack``, ``secret``
    and ``path``, so an A2's :class:`~repro.core.packets.AckVerdict`
    passes as is.
    """
    index = opening.msg_index
    if not 0 <= index < n_messages:
        return False
    if len(opening.path) != tree_depth(2 * n_messages):
        return False
    leaf = index if opening.is_ack else n_messages + index
    return verify_merkle_path(
        hash_fn, _leaf_blob(index, opening.secret), leaf, opening.path, key,
        expected_root, "amt", cache,
    )
