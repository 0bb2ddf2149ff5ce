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
``j`` otherwise — by disclosing ``(x_j, s_j, {Bc})`` in an A2, as the
wire's own :class:`~repro.core.packets.AckVerdict`. The secrets prevent
deriving an ack from a nack (or any unopened leaf) even after the chain
element is disclosed.

Both reliable modes draw an exchange's ``2n`` secrets by one rule,
:func:`draw_secrets`: one DRBG request, sliced by the layout of
PROTOCOL.md §4. ALPHA-C commits to them as flat pre-(n)acks, ALPHA-M as
the AMT's leaves.
"""

from __future__ import annotations

import struct

from repro.core.merkle import (
    MerkleTree,
    MerkleVerifyCache,
    tree_depth,
    verify_merkle_path,
)
from repro.core.packets import AckVerdict
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import HashFunction

_SECRET_SIZE = 16

#: ``x_i``: the 4-byte big-endian message index that prefixes leaf
#: ``i``'s secret. The tree build and :func:`verify_ack_opening` both
#: form a leaf blob as ``_index_prefix(i) + s_i``.
_index_prefix = struct.Struct(">I").pack


def draw_secrets(rng: DRBG, n_messages: int) -> tuple[list[bytes], list[bytes]]:
    """An exchange's ``2n`` pre-(n)ack secrets from one DRBG request.

    Returns ``(ack_secrets, nack_secrets)``, 16 bytes each. Message
    ``j``'s ack secret is bytes ``[32j, 32j+16)`` of one
    ``random_bytes(32·n)`` draw and its nack secret bytes
    ``[32j+16, 32j+32)`` (PROTOCOL.md §4). Fresh secrets per exchange
    thwart replay across exchanges (paper Section 3.2.2, last
    paragraph): they are distinct slices of a stream that never repeats.
    """
    stride = 2 * _SECRET_SIZE
    draw = rng.random_bytes(stride * n_messages)
    end = len(draw)
    return (
        [draw[i : i + _SECRET_SIZE] for i in range(0, end, stride)],
        [draw[i : i + _SECRET_SIZE] for i in range(_SECRET_SIZE, end, stride)],
    )


class AckTree:
    """Verifier-side AMT: builds the tree and opens leaves on demand.

    Implementation note: the keyed :class:`MerkleTree` already provides
    exactly the structure Figure 7 requires if we lay the ``2n`` leaves
    out as ``[ack_0 .. ack_{n-1}, nack_0 .. nack_{n-1}]`` — the key
    takes the role of ``h^Va_{i-1}`` at the root combine, and a leaf's
    half determines its meaning. The secrets come from one
    :func:`draw_secrets` request per tree.
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
        acks, nacks = draw_secrets(rng, n_messages)
        self._secrets = acks + nacks  # in leaf order
        prefixes = list(map(_index_prefix, range(n_messages)))
        blobs = list(map(bytes.__add__, prefixes + prefixes, self._secrets))
        self._tree = MerkleTree(hash_fn, blobs, label_prefix="amt")
        self.root = self._tree.root(key)

    def open(self, msg_index: int, is_ack: bool) -> AckVerdict:
        """Disclose the (n)ack leaf for one message, as an A2 carries it."""
        if not 0 <= msg_index < self.n_messages:
            raise IndexError(
                f"message index {msg_index} out of range 0..{self.n_messages - 1}"
            )
        leaf = msg_index if is_ack else self.n_messages + msg_index
        return AckVerdict(msg_index, is_ack, self._secrets[leaf], self._tree.path(leaf))


def verify_ack_opening(
    hash_fn: HashFunction,
    opening: AckVerdict,
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
    """
    index = opening.msg_index
    if not 0 <= index < n_messages:
        return False
    if len(opening.path) != tree_depth(2 * n_messages):
        return False
    leaf = index if opening.is_ack else n_messages + index
    return verify_merkle_path(
        hash_fn, _index_prefix(index) + opening.secret, leaf, opening.path, key,
        expected_root, "amt", cache,
    )
