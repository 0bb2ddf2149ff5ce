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


def leaves_per_tree(message_count: int, trees: int) -> int:
    """Leaves per tree when a batch is split over ``trees`` keyed roots.

    Combined C+M mode (Section 3.3.2, last paragraph) puts message ``j``
    at leaf ``j % per_tree`` of tree ``j // per_tree``, with ``per_tree
    = ceil(message_count / trees)``; plain ALPHA-M is the one-tree case.
    The signer slices its batch by this rule and every receiver locates
    a message's root by it, so it lives here once.
    """
    return -(-message_count // trees)


def tree_depth(leaves: int) -> int:
    """Siblings in every authentication path of a tree over ``leaves``
    leaves (padded to a power of two): ``ceil(log2(leaves))``.

    Every checker rejects a path of any other length (PROTOCOL.md §14.3).
    """
    return (leaves - 1).bit_length()


#: ``prefix -> (leaf, node, root)`` operation-counter labels, built
#: once per prefix rather than on every fold.
_LABELS: dict[str, tuple[str, str, str]] = {}


def _labels(prefix: str) -> tuple[str, str, str]:
    labels = _LABELS.get(prefix)
    if labels is None:
        labels = (f"{prefix}-leaf", f"{prefix}-node", f"{prefix}-root")
        _LABELS[prefix] = labels
    return labels


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
        self.n_leaves = 1 << tree_depth(len(messages))
        padded = list(messages) + [b""] * (self.n_leaves - len(messages))
        # One raw-hash pass per row, charged in bulk with the exact
        # per-call tallies (PROTOCOL.md §14.6): n_leaves leaf hashes over
        # the messages (the pads are empty), then one hash per inner
        # node over two child digests.
        raw = hash_fn.raw
        record = hash_fn.counter.record_hash_batch
        # levels[0] is the leaf row; levels[-1] has one or two nodes.
        leaf_row = [raw(block) for block in padded]
        leaf_label, node_label, _ = _labels(label_prefix)
        record(self.n_leaves, sum(map(len, messages)), leaf_label)
        levels = [leaf_row]
        inner = 0
        while len(levels[-1]) > 2:
            row = levels[-1]
            levels.append([raw(a + b) for a, b in zip(row[::2], row[1::2])])
            inner += len(row) // 2
        record(inner, inner * 2 * len(leaf_row[0]), node_label)
        self._levels = levels

    @property
    def depth(self) -> int:
        """Number of sibling hashes in an authentication path."""
        return len(self._levels) if len(self._levels[-1]) == 2 else len(self._levels) - 1

    def root(self, key: bytes) -> bytes:
        """The keyed root ``H(key | b_0 | b_1)`` (or ``H(key | b_0)``)."""
        top = self._levels[-1]
        label = _labels(self._label_prefix)[2]
        return self._hash.digest(key + b"".join(top), label=label)

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
    """Nodes proven to connect to a committed root.

    Receiving-side batch accelerator (PROTOCOL.md §14.3): the first
    path checked under a root verifies the full ``1* + log2(n)`` fold
    and deposits every node it computed, including the complementary
    siblings, which the successful root comparison proves genuine too.
    Later paths under the same root fold upward only until they meet a
    proven node, which in the common case is immediately: their own
    leaf hash was the previous path's level-0 sibling. Amortized
    per-message cost drops from ``log2(n) + 2`` hashes to little more
    than the one leaf hash. The signer and each relay check the
    verifier's AMT openings through the same cache (the AMT is just
    another committed root), so one per exchange serves both trees.

    Soundness rests on the same collision resistance as the tree itself:
    a node is stored only after a fold chain ending in the committed
    root, and a short-circuit requires computing a value *equal* to a
    stored node at the same place in the tree; any forged message or
    path reaching that point is a hash collision. Entries are
    namespaced by the committed root, so MERKLE_CUMULATIVE exchanges
    with several block roots, and the AMT beside them, share one cache
    safely and a node can never vouch across roots.

    Layout: one list per root, indexed by heap slot. The node at
    ``(level, position)`` of a tree of depth ``d`` sits at slot
    ``(1 << (d - level)) + position``: leaves fill ``2**d ..
    2**(d+1) - 1``, and the nodes the keyed root combine consumes sit
    at slots 2 and 3 (slot 1 for a one-leaf tree). A root's list is sized by the depth its first
    successful fold proved, and a path of any other length is rejected
    under that root; callers check the depth against the tree that
    covers the index before the first fold (PROTOCOL.md §14.3).

    Lifetime is one exchange: engines hang an instance off their
    per-exchange state, so it dies at the batch boundary with the
    exchange and is never serialized into recovery journals (a restored
    relay re-proves from the re-presented S1 commitments alone).
    """

    __slots__ = ("hits", "misses", "_tables")

    def __init__(self) -> None:
        self._tables: dict[bytes, list[bytes | None]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return sum(len(table) - table.count(None) for table in self._tables.values())

    def clear(self) -> None:
        self._tables.clear()

    def node(self, root: bytes, level: int, position: int) -> bytes | None:
        """The proven node at ``(level, position)`` under ``root``."""
        table = self._tables.get(root)
        if table is None:
            return None
        depth = len(table).bit_length() - 2
        if not 0 <= level <= depth or not 0 <= position < 1 << (depth - level):
            return None
        return table[(1 << (depth - level)) + position]


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
    """Check one leaf against a keyed root: an S2 block at the verifier
    and each relay, or an AMT opening at the signer and each relay.

    Recomputes the leaf from ``message``, folds the complementary
    branches upward, applies the disclosed key, and compares against the
    committed root. Performs ``len(path) + 1`` fixed-size hash
    operations plus one leaf hash over the message, the paper's
    ``1* + log2(n)`` verifier cost (Table 1). With a
    :class:`MerkleVerifyCache` the fold short-circuits at the first
    node already proven under ``expected_root``, and a verification that
    does reach the root deposits everything it computed.

    ``index`` must address a leaf of a tree ``len(path)`` deep. Whether
    that is the depth of the committed tree is the caller's check
    (:func:`~repro.core.verifier.verify_s2`,
    :func:`~repro.core.acktree.verify_ack_opening`): leaves and inner
    nodes hash alike, so a path one sibling short folds an inner node's
    preimage to the same root.
    """
    depth = len(path)
    if index < 0 or index >> depth:
        return False
    table = None
    if cache is not None:
        table = cache._tables.get(expected_root)
        if table is not None and len(table) != 2 << depth:
            return False  # not the depth proven under this root
    leaf_label, node_label, root_label = _labels(label_prefix)
    # The fold runs on the raw hash and charges each label once, in
    # per-call order (leaf, nodes, root), with the exact per-call
    # tallies, whether it ends at a proven node, the root, or a miss.
    raw = hash_fn.raw
    counter = hash_fn.counter
    labels = counter.labels
    value = raw(message)
    counter.hash_ops += 1
    counter.hash_bytes += len(message)
    labels[leaf_label] = labels.get(leaf_label, 0) + 1
    slot = (1 << depth) + index
    if table is not None and table[slot] == value:
        cache.hits += 1
        return True
    values = [value]  # the fold's own node at each level, for deposit
    at = slot
    level = 0
    folded = 0  # bytes hashed by the node folds so far
    top = depth - 1
    while level < top:
        sibling = path[level]
        data = sibling + value if at & 1 else value + sibling
        folded += len(data)
        value = raw(data)
        at >>= 1
        level += 1
        if table is not None and table[at] == value:
            # The fold met a proven node: membership established, and
            # everything below it is now proven as well.
            counter.hash_ops += level
            counter.hash_bytes += folded
            labels[node_label] = labels.get(node_label, 0) + level
            cache.hits += 1
            _deposit(table, slot, values, path)
            return True
        values.append(value)
    if level:
        counter.hash_ops += level
        counter.hash_bytes += folded
        labels[node_label] = labels.get(node_label, 0) + level
    if depth:
        combined = key + path[top] + value if at & 1 else key + value + path[top]
    else:
        combined = key + value
    counter.hash_ops += 1
    counter.hash_bytes += len(combined)
    labels[root_label] = labels.get(root_label, 0) + 1
    ok = raw(combined) == expected_root
    if cache is not None:
        cache.misses += 1
        if ok:
            if table is None:
                table = cache._tables[expected_root] = [None] * (2 << depth)
            if depth:
                _deposit(table, slot, values, path)
            else:
                table[1] = value
    return ok


def _deposit(
    table: list[bytes | None], slot: int, values: list[bytes], path: list[bytes]
) -> None:
    """Store each level's folded node and its sibling, from ``slot`` up."""
    for value, sibling in zip(values, path):
        table[slot] = value
        table[slot ^ 1] = sibling
        slot >>= 1
