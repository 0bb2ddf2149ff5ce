"""Differential property test: batched Merkle/AMT tallies vs per-call digests.

``MerkleTree`` and ``verify_merkle_path`` hash on the raw callable and
charge the operation counter once per label (PROTOCOL.md §14.6). The
claim is that this is a pure cost optimisation. The reference here is
the straightforward fold: one counted ``HashFunction.digest`` per hash,
the verify-cache rules over a plain ``(root, level, position)`` dict,
and labels charged in per-call order.

A production fold and a reference fold, each with its own counter and
its own cache, build the same tree and verify the same sequence of
genuine and tampered paths, or of genuine and tampered AMT openings.
After every step the results, every node the two caches hold (read
through ``node(root, level, position)`` at every position of the tree)
and their sizes and hit/miss counts, and ``(hash_ops, hash_bytes,
labels)`` must agree.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.acktree import AckTree, verify_ack_opening
from repro.core.merkle import MerkleTree, MerkleVerifyCache, verify_merkle_path
from repro.core.packets import AckVerdict
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import OpCounter, get_hash

TAMPERS = ("genuine", "leaf", "sibling", "key", "short", "long")
OPENING_TAMPERS = ("genuine", "flip", "swap", "secret", "short", "long")


class ReferenceCache:
    """The verify cache as a plain ``(root, level, position)`` dict."""

    def __init__(self):
        self.nodes = {}
        self.depths = {}  # root -> depth its first successful fold proved
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return len(self.nodes)

    def node(self, root, level, position):
        return self.nodes.get((root, level, position))


def reference_levels(hash_fn, messages, prefix):
    n_leaves = 1
    while n_leaves < len(messages):
        n_leaves *= 2
    padded = list(messages) + [b""] * (n_leaves - len(messages))
    levels = [[hash_fn.digest(block, label=f"{prefix}-leaf") for block in padded]]
    while len(levels[-1]) > 2:
        row = levels[-1]
        levels.append(
            [
                hash_fn.digest(row[i] + row[i + 1], label=f"{prefix}-node")
                for i in range(0, len(row), 2)
            ]
        )
    return levels


def reference_root(hash_fn, levels, key, prefix):
    return hash_fn.digest(key + b"".join(levels[-1]), label=f"{prefix}-root")


def reference_path(levels, index):
    siblings = []
    position = index
    for row in levels[:-1]:
        siblings.append(row[position ^ 1])
        position //= 2
    if len(levels[-1]) == 2:
        siblings.append(levels[-1][position ^ 1])
    return siblings


def reference_verify(hash_fn, message, index, path, key, expected_root, prefix, cache):
    """One counted digest per hash, with the verify cache's rules."""
    if not 0 <= index < 2 ** len(path):
        return False  # no leaf of a tree len(path) deep
    if cache is not None and cache.depths.get(expected_root, len(path)) != len(path):
        return False  # not the depth proven under this root
    value = hash_fn.digest(message, label=f"{prefix}-leaf")
    position = index
    nodes = cache.nodes if cache is not None else None
    computed = None
    if nodes is not None:
        if nodes.get((expected_root, 0, position)) == value:
            cache.hits += 1
            return True
        computed = [(0, position, value)]
    level = 0
    if path:
        for sibling in path[:-1]:
            pair = sibling + value if position % 2 else value + sibling
            value = hash_fn.digest(pair, label=f"{prefix}-node")
            if computed is not None:
                computed.append((level, position ^ 1, sibling))
            position //= 2
            level += 1
            if computed is not None:
                if nodes.get((expected_root, level, position)) == value:
                    cache.hits += 1
                    for lvl, pos, val in computed:
                        nodes[(expected_root, lvl, pos)] = val
                    return True
                computed.append((level, position, value))
        top = path[-1]
        combined = key + (top + value if position % 2 else value + top)
    else:
        combined = key + value
    ok = hash_fn.digest(combined, label=f"{prefix}-root") == expected_root
    if computed is not None:
        cache.misses += 1
        if ok:
            if path:
                computed.append((level, position ^ 1, top))
            for lvl, pos, val in computed:
                nodes[(expected_root, lvl, pos)] = val
            cache.depths[expected_root] = len(path)
    return ok


def reference_ack_verify(hash_fn, opening, n_messages, key, expected_root, cache):
    """``verify_ack_opening`` over :func:`reference_verify`."""
    if not 0 <= opening.msg_index < n_messages:
        return False
    if len(opening.path) != (2 * n_messages - 1).bit_length():
        return False
    leaf = opening.msg_index + (0 if opening.is_ack else n_messages)
    blob = opening.msg_index.to_bytes(4, "big") + opening.secret
    return reference_verify(
        hash_fn, blob, leaf, opening.path, key, expected_root, "amt", cache
    )


def assert_same_caches(fast, slow, root, depth):
    """Every node of a ``depth``-deep tree under ``root``, one level above
    and below it included, reads the same from both caches."""
    assert len(fast) == len(slow)
    assert (fast.hits, fast.misses) == (slow.hits, slow.misses)
    for level in range(-1, depth + 2):
        for position in range(-1, 2 ** max(depth - level, 0) + 1):
            assert fast.node(root, level, position) == slow.node(
                root, level, position
            ), (level, position)


def tallies(hash_fn):
    counter = hash_fn.counter
    return counter.hash_ops, counter.hash_bytes, list(counter.labels.items())


def flip(data, at):
    if not data:
        return b"\x01"
    at %= len(data)
    return data[:at] + bytes([data[at] ^ 0x80]) + data[at + 1 :]


queries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),  # leaf index (mod n)
        st.sampled_from(TAMPERS),
        st.integers(min_value=0, max_value=10_000),  # which sibling / byte
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=130),
    name=st.sampled_from(["sha1", "sha1-8", "sha256"]),
    prefix=st.sampled_from(["merkle", "amt"]),
    cached=st.booleans(),
    seed=st.binary(min_size=0, max_size=40),
    schedule=queries,
)
@example(n=1, name="sha1", prefix="merkle", cached=True, seed=b"", schedule=[(0, "genuine", 0)])
@example(n=2, name="sha1", prefix="amt", cached=False, seed=b"s", schedule=[(1, "sibling", 0)])
@example(
    n=130,
    name="sha1-8",
    prefix="merkle",
    cached=True,
    seed=b"x" * 33,
    schedule=[(i, "genuine", 0) for i in range(0, 130, 7)] + [(5, "leaf", 3)],
)
def test_batched_tallies_match_per_call(n, name, prefix, cached, seed, schedule):
    fast_hash = get_hash(name, OpCounter())
    slow_hash = get_hash(name, OpCounter())
    # Variable-length messages, the empty one included.
    messages = [seed[: i % (len(seed) + 1)] + i.to_bytes(2, "big") * (i % 3) for i in range(n)]
    key = (seed + b"key")[: fast_hash.digest_size]

    tree = MerkleTree(fast_hash, messages, label_prefix=prefix)
    levels = reference_levels(slow_hash, messages, prefix)
    assert tree._levels == levels
    assert tallies(fast_hash) == tallies(slow_hash)
    root = tree.root(key)
    assert root == reference_root(slow_hash, levels, key, prefix)
    assert tallies(fast_hash) == tallies(slow_hash)

    fast_cache = MerkleVerifyCache() if cached else None
    slow_cache = ReferenceCache() if cached else None
    for raw_index, tamper, at in schedule:
        index = raw_index % n
        path = tree.path(index)
        assert path == reference_path(levels, index)
        message, used_key = messages[index], key
        if tamper == "leaf":
            message = flip(message, at)
        elif tamper == "sibling" and path:
            j = at % len(path)
            path = path[:j] + [flip(path[j], at // len(path))] + path[j + 1 :]
        elif tamper == "key":
            used_key = flip(key, at)
        elif tamper == "short":
            path = path[:-1]
        elif tamper == "long":
            path = path + [flip(key, at)]
        fast = verify_merkle_path(
            fast_hash, message, index, path, used_key, root, prefix, fast_cache
        )
        slow = reference_verify(
            slow_hash, message, index, path, used_key, root, prefix, slow_cache
        )
        assert fast == slow, (index, tamper)
        if tamper == "genuine":
            assert fast
        assert tallies(fast_hash) == tallies(slow_hash), (index, tamper)
        if cached:
            depth = len(levels[0]).bit_length() - 1
            assert_same_caches(fast_cache, slow_cache, root, depth)


opening_queries = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10_000),  # message index (mod n)
        st.booleans(),  # ack or nack
        st.sampled_from(OPENING_TAMPERS),
        st.integers(min_value=0, max_value=10_000),  # which byte / index
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=70),
    name=st.sampled_from(["sha1", "sha1-8", "sha256"]),
    cached=st.booleans(),
    seed=st.binary(min_size=0, max_size=16),
    schedule=opening_queries,
)
@example(n=1, name="sha1", cached=True, seed=b"", schedule=[(0, True, "genuine", 0)])
@example(
    n=64,
    name="sha1",
    cached=True,
    seed=b"bulk",
    schedule=[(i, True, "genuine", 0) for i in range(64)]
    + [(3, False, "genuine", 0), (5, True, "flip", 0), (9, True, "short", 0)],
)
def test_amt_opening_tallies_match_per_call(n, name, cached, seed, schedule):
    fast_hash = get_hash(name, OpCounter())
    slow_hash = get_hash(name, OpCounter())
    key = (seed + b"ack-key")[: fast_hash.digest_size]
    amt = AckTree(fast_hash, n, key, DRBG(seed))
    blobs = [
        (i % n).to_bytes(4, "big") + secret for i, secret in enumerate(amt._secrets)
    ]
    levels = reference_levels(slow_hash, blobs, "amt")
    assert reference_root(slow_hash, levels, key, "amt") == amt.root
    assert tallies(fast_hash) == tallies(slow_hash)

    fast_cache = MerkleVerifyCache() if cached else None
    slow_cache = ReferenceCache() if cached else None
    for raw_index, is_ack, tamper, at in schedule:
        index = raw_index % n
        genuine = amt.open(index, is_ack)
        assert genuine.path == reference_path(levels, index + (0 if is_ack else n))
        opening = genuine
        if tamper == "flip":
            opening = AckVerdict(index, not is_ack, genuine.secret, genuine.path)
        elif tamper == "swap":
            other = (index + 1 + at) % n
            opening = AckVerdict(other, is_ack, genuine.secret, genuine.path)
        elif tamper == "secret":
            opening = AckVerdict(index, is_ack, flip(genuine.secret, at), genuine.path)
        elif tamper == "short":
            opening = AckVerdict(index, is_ack, genuine.secret, genuine.path[:-1])
        elif tamper == "long":
            extra = [flip(genuine.secret, at)[:1] * fast_hash.digest_size]
            opening = AckVerdict(index, is_ack, genuine.secret, genuine.path + extra)
        fast = verify_ack_opening(fast_hash, opening, n, key, amt.root, fast_cache)
        slow = reference_ack_verify(slow_hash, opening, n, key, amt.root, slow_cache)
        assert fast == slow, (index, is_ack, tamper)
        if tamper == "genuine":
            assert fast
        assert tallies(fast_hash) == tallies(slow_hash), (index, is_ack, tamper)
        if cached:
            assert_same_caches(fast_cache, slow_cache, amt.root, len(genuine.path))
