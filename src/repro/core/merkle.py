"""Keyed Merkle trees for ALPHA-M (paper Section 3.3.2, Figure 4).

A signer splits its buffered messages into blocks ``m_j``, hashes each
into a leaf ``b_j = H(m_j)``, and builds a binary tree where every
internal node is the hash of its children's concatenation. The root is
*keyed* with the signer's next undisclosed chain element:

    r = H(h^Ss_{i-1} | b_0 | b_1)

so the pre-signature commits simultaneously to the whole message set and
to the key that will be disclosed in the S2 packets. Each S2 then
carries its block plus the complementary branch set ``{Bc}`` — one
sibling per level — allowing independent, out-of-order verification of
every block with ``⌈log2 n⌉`` fixed-size hashes.

Leaf counts that are not powers of two are padded with empty-message
leaves; the pad leaves can never verify as real messages because their
pre-image is the empty block, which the protocol layer rejects.
"""

from __future__ import annotations

from repro.crypto.hashes import HashFunction


def _ceil_pow2(n: int) -> int:
    power = 1
    while power < n:
        power *= 2
    return power


def leaves_per_tree(message_count: int, trees: int) -> int:
    """Leaves per tree when a batch is split over ``trees`` keyed roots.

    Combined C+M mode (Section 3.3.2, last paragraph) puts message ``j``
    at leaf ``j % per_tree`` of tree ``j // per_tree``, with ``per_tree
    = ceil(message_count / trees)``; plain ALPHA-M is the one-tree case.
    The signer slices its batch by this rule and every receiver locates
    a message's root by it, so it lives here once.
    """
    return -(-message_count // trees)


class MerkleTree:
    """Signer-side tree: construction, keyed root, and path extraction.

    ``label_prefix`` namespaces the operation-counter labels so that
    message trees ("merkle-leaf" — variable-size inputs, the paper's
    asterisk entries) are distinguishable from acknowledgment trees
    ("amt-leaf" — fixed-size inputs) in measured Table 1 accounting.
    """

    def __init__(
        self,
        hash_fn: HashFunction,
        messages: list[bytes],
        label_prefix: str = "merkle",
    ) -> None:
        if not messages:
            raise ValueError("a Merkle tree needs at least one message")
        self._hash = hash_fn
        self._label_prefix = label_prefix
        self.n_messages = len(messages)
        self.n_leaves = _ceil_pow2(len(messages))
        padded = list(messages) + [b""] * (self.n_leaves - len(messages))
        # One raw-hash pass per row, charged in bulk with the exact
        # per-call tallies (PROTOCOL.md §14.6): n_leaves leaf hashes over
        # the messages (the pads are empty), then one hash per inner
        # node over two child digests.
        raw = hash_fn.raw
        record = hash_fn.counter.record_hash_batch
        # levels[0] is the leaf row; levels[-1] has one or two nodes.
        leaf_row = [raw(block) for block in padded]
        record(self.n_leaves, sum(map(len, messages)), f"{label_prefix}-leaf")
        levels = [leaf_row]
        inner = 0
        while len(levels[-1]) > 2:
            row = levels[-1]
            levels.append([raw(a + b) for a, b in zip(row[::2], row[1::2])])
            inner += len(row) // 2
        record(inner, inner * 2 * len(leaf_row[0]), f"{label_prefix}-node")
        self._levels = levels

    @property
    def depth(self) -> int:
        """Number of sibling hashes in an authentication path."""
        return len(self._levels) if len(self._levels[-1]) == 2 else len(self._levels) - 1

    def root(self, key: bytes) -> bytes:
        """The keyed root ``H(key | b_0 | b_1)`` (or ``H(key | b_0)``)."""
        top = self._levels[-1]
        return self._hash.digest(
            key + b"".join(top), label=f"{self._label_prefix}-root"
        )

    def path(self, index: int) -> list[bytes]:
        """Complementary branches ``{Bc}`` for leaf ``index``, bottom-up.

        The final entry (when the tree has more than one leaf) is the
        sibling of the top-level node on the leaf's side; the keyed root
        combine consumes both top nodes directly.
        """
        if not 0 <= index < self.n_messages:
            raise IndexError(f"leaf index {index} out of range 0..{self.n_messages - 1}")
        siblings = []
        position = index
        for row in self._levels[:-1]:
            siblings.append(row[position ^ 1])
            position //= 2
        if len(self._levels[-1]) == 2:
            siblings.append(self._levels[-1][position ^ 1])
        return siblings


class MerkleVerifyCache:
    """Interior nodes proven to connect to a committed root.

    Receiving-side batch accelerator (PROTOCOL.md §14): the first S2 of
    a batch verifies the full ``1* + log2(n)`` path and deposits every
    node it computed — including the complementary siblings, which the
    successful root comparison proves genuine too. Later S2s of the same
    batch fold upward only until they meet a proven node, which in the
    common case is immediately: their own leaf hash was the previous
    packet's level-0 sibling. Amortized per-message cost drops from
    ``log2(n) + 2`` hashes to little more than the one leaf hash.

    Soundness rests on the same collision resistance as the tree itself:
    a cached node is stored only after a fold chain ending in the
    committed root, and a short-circuit requires computing a value
    *equal* to a cached node at the same (level, position) — any forged
    message or path reaching that point is a hash collision. Entries are
    namespaced by the committed root, so MERKLE_CUMULATIVE exchanges
    with several block roots share one cache safely and a node can never
    vouch across roots.

    Lifetime is one exchange: engines hang an instance off their
    per-exchange state, so it dies at the batch boundary with the
    exchange and is never serialized into recovery journals (a restored
    relay re-proves from the re-presented S1 commitments alone).
    """

    __slots__ = ("hits", "misses", "_nodes")

    def __init__(self) -> None:
        self._nodes: dict[tuple[bytes, int, int], bytes] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._nodes)

    def clear(self) -> None:
        self._nodes.clear()

    def node(self, root: bytes, level: int, position: int) -> bytes | None:
        """The proven node at ``(level, position)`` under ``root``."""
        return self._nodes.get((root, level, position))


def verify_merkle_path(
    hash_fn: HashFunction,
    message: bytes,
    index: int,
    path: list[bytes],
    key: bytes,
    expected_root: bytes,
    label_prefix: str = "merkle",
    cache: MerkleVerifyCache | None = None,
) -> bool:
    """Verifier/relay-side check of one S2 block.

    Recomputes the leaf from ``message``, folds the complementary
    branches upward, applies the disclosed key, and compares against the
    committed root. Performs ``len(path) + 1`` fixed-size hash
    operations plus one leaf hash over the message — the paper's
    ``1* + log2(n)`` verifier cost (Table 1). With a
    :class:`MerkleVerifyCache` the fold short-circuits at the first
    node already proven under ``expected_root``, and a verification that
    does reach the root deposits everything it computed.
    """
    if index < 0:
        return False
    # The fold runs on the raw hash and charges each label once, in
    # per-call order (leaf, nodes, root), with the exact per-call
    # tallies — whether it ends at a cached node, the root, or a miss.
    raw = hash_fn.raw
    record = hash_fn.counter.record_hash_batch
    node_label = f"{label_prefix}-node"
    value = raw(message)
    record(1, len(message), f"{label_prefix}-leaf")
    position = index
    nodes = cache._nodes if cache is not None else None
    computed: list[tuple[int, int, bytes]] | None = None
    if nodes is not None:
        if nodes.get((expected_root, 0, position)) == value:
            cache.hits += 1
            return True
        computed = [(0, position, value)]
    level = 0
    if path:
        folded = 0  # bytes hashed by the node folds so far
        for sibling in path[:-1]:
            data = sibling + value if position % 2 else value + sibling
            folded += len(data)
            value = raw(data)
            if computed is not None:
                computed.append((level, position ^ 1, sibling))
            position //= 2
            level += 1
            if computed is not None:
                if nodes.get((expected_root, level, position)) == value:
                    # The fold met a proven node: membership established,
                    # and everything below it is now proven as well.
                    record(level, folded, node_label)
                    cache.hits += 1
                    for lvl, pos, val in computed:
                        nodes[(expected_root, lvl, pos)] = val
                    return True
                computed.append((level, position, value))
        record(level, folded, node_label)
        top_sibling = path[-1]
        if position % 2:
            combined = key + top_sibling + value
        else:
            combined = key + value + top_sibling
    else:
        combined = key + value
    root = raw(combined)
    record(1, len(combined), f"{label_prefix}-root")
    ok = root == expected_root
    if computed is not None:
        cache.misses += 1
        if ok:
            if path:
                computed.append((level, position ^ 1, top_sibling))
            for lvl, pos, val in computed:
                nodes[(expected_root, lvl, pos)] = val
    return ok


def path_overhead_bytes(n_messages: int, hash_size: int) -> int:
    """On-wire bytes of ``{Bc}`` plus the disclosed key for one S2.

    This is the per-packet signature overhead that produces the see-saw
    pattern of the paper's Figure 5: ``(⌈log2 n⌉ + 1) * hash_size``.
    """
    if n_messages < 1:
        raise ValueError("need at least one message")
    depth = 0
    power = 1
    while power < n_messages:
        power *= 2
        depth += 1
    return (depth + 1) * hash_size
