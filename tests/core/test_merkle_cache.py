"""Merkle interior-node verify cache: soundness and lifetime (§14).

The receiving side of ALPHA-M amortizes batch verification by caching
interior nodes proven to connect to a committed root. Two things can go
wrong with such a cache and both are tested here:

*Unsoundness* — a cache hit accepting a message the full fold would
have rejected. The unit tests pin that forged messages, forged paths,
and cross-root confusion all still fail with a warm cache.

*Staleness* — entries outliving the commitment that proved them. The
engine tests pin the lifetime contract: one exchange. A new batch gets
a fresh cache (its root could never be vouched for by old entries, but
the memory must not accrete either), and a relay restored from its
crash journal starts cold even for exchanges it had half-verified —
re-presented S1 commitments are re-proven from scratch.
"""

import math

import pytest

from repro.canonical import CanonicalChannel
from repro.core.merkle import MerkleTree, MerkleVerifyCache, verify_merkle_path
from repro.core.modes import Mode, ReliabilityMode
from repro.core.signer import ChannelConfig

from tests.core.test_relay_journal import ASSOC, H, Harness

KEY = b"\xA5" * H


def merkle_config(batch=8, reliability=ReliabilityMode.UNRELIABLE):
    return ChannelConfig(mode=Mode.MERKLE, batch_size=batch,
                         reliability=reliability)


class TestCacheAmortization:
    def test_first_leaf_populates_later_leaves_short_circuit(self, sha1):
        n = 16
        messages = [b"m%d" % i for i in range(n)]
        tree = MerkleTree(sha1, messages)
        root = tree.root(KEY)
        cache = MerkleVerifyCache()

        before = sha1.counter.snapshot()
        assert verify_merkle_path(sha1, messages[0], 0, tree.path(0), KEY,
                                  root, cache=cache)
        full_cost = sha1.counter.diff(before).hash_ops
        # 1 leaf + (log2 n - 1) inner + 1 keyed root.
        assert full_cost == int(math.log2(n)) + 1
        assert cache.misses == 1 and cache.hits == 0
        assert len(cache) > 0

        # Leaf 1's own hash was stored as leaf 0's level-0 sibling: one
        # leaf hash and the fold short-circuits immediately.
        before = sha1.counter.snapshot()
        assert verify_merkle_path(sha1, messages[1], 1, tree.path(1), KEY,
                                  root, cache=cache)
        assert sha1.counter.diff(before).hash_ops == 1
        assert cache.hits == 1

        # A far leaf still beats the full fold: its subtree is unproven
        # but the top of its path is already in the cache.
        before = sha1.counter.snapshot()
        assert verify_merkle_path(sha1, messages[12], 12, tree.path(12),
                                  KEY, root, cache=cache)
        assert sha1.counter.diff(before).hash_ops < full_cost
        assert cache.hits == 2

    def test_whole_batch_amortized_cost(self, sha1):
        n = 16
        messages = [b"blk%d" % i for i in range(n)]
        tree = MerkleTree(sha1, messages)
        root = tree.root(KEY)

        cold = sha1.counter.snapshot()
        for i in range(n):
            assert verify_merkle_path(sha1, messages[i], i, tree.path(i),
                                      KEY, root)
        cold_cost = sha1.counter.diff(cold).hash_ops

        cache = MerkleVerifyCache()
        warm = sha1.counter.snapshot()
        for i in range(n):
            assert verify_merkle_path(sha1, messages[i], i, tree.path(i),
                                      KEY, root, cache=cache)
        warm_cost = sha1.counter.diff(warm).hash_ops
        # n leaf hashes are irreducible; the fold work all but vanishes.
        assert warm_cost < cold_cost / 2
        assert cache.hits == n - 1


class TestCacheSoundness:
    @pytest.fixture
    def setup(self, sha1):
        messages = [b"w%d" % i for i in range(8)]
        tree = MerkleTree(sha1, messages)
        root = tree.root(KEY)
        cache = MerkleVerifyCache()
        for i in range(8):  # warm the cache fully
            assert verify_merkle_path(sha1, messages[i], i, tree.path(i),
                                      KEY, root, cache=cache)
        return messages, tree, root, cache

    def test_forged_message_rejected_with_warm_cache(self, sha1, setup):
        messages, tree, root, cache = setup
        assert not verify_merkle_path(sha1, b"forged", 3, tree.path(3), KEY,
                                      root, cache=cache)

    def test_swapped_index_rejected_with_warm_cache(self, sha1, setup):
        messages, tree, root, cache = setup
        # Genuine message presented at the wrong leaf position: its leaf
        # hash is cached — but at position 2, not 5.
        assert not verify_merkle_path(sha1, messages[2], 5, tree.path(5),
                                      KEY, root, cache=cache)

    def test_forged_path_rejected_when_cold(self, sha1, setup):
        messages, tree, root, cache = setup
        bad_path = [b"\x00" * H for _ in tree.path(3)]
        assert not verify_merkle_path(sha1, messages[3], 3, bad_path, KEY,
                                      root)

    def test_genuine_leaf_accepted_despite_damaged_path_when_warm(
        self, sha1, setup
    ):
        # The claim being verified is membership of (message, index)
        # under the committed root. Once the cache has proven that leaf,
        # the complementary branches are redundant — a damaged path on a
        # retransmitted S2 no longer costs the delivery. This is a
        # deliberate behaviour change, sound because the leaf node was
        # only cached after a fold that reached the root.
        messages, tree, root, cache = setup
        bad_path = [b"\x00" * H for _ in tree.path(3)]
        assert verify_merkle_path(sha1, messages[3], 3, bad_path, KEY,
                                  root, cache=cache)

    def test_cache_entries_are_namespaced_by_root(self, sha1, setup):
        messages, tree, root, cache = setup
        other = MerkleTree(sha1, [b"o%d" % i for i in range(8)])
        other_root = other.root(KEY)
        # A proof valid under `root` must not satisfy `other_root` even
        # though the cache is warm for the same (level, position) keys.
        assert not verify_merkle_path(sha1, messages[0], 0, tree.path(0),
                                      KEY, other_root, cache=cache)
        assert cache.node(other_root, 0, 0) is None

    def test_failed_verification_deposits_nothing(self, sha1):
        tree = MerkleTree(sha1, [b"x%d" % i for i in range(4)])
        root = tree.root(KEY)
        cache = MerkleVerifyCache()
        assert not verify_merkle_path(sha1, b"evil", 0, tree.path(0), KEY,
                                      root, cache=cache)
        assert len(cache) == 0


def make_merkle_channel(sha1, rng, batch=8):
    channel = CanonicalChannel(rng, merkle_config(batch), relays=0, assoc_id=ASSOC)
    return channel.signer, channel.verifier


def drive_batch(signer, verifier, messages, now=0.0):
    channel = CanonicalChannel.around(signer, verifier, H)
    delivered, _ = channel.exchange(messages, now)
    return delivered[0].seq, [m.message for m in delivered]


class TestEngineCacheLifetime:
    def test_verifier_batch_uses_cache(self, sha1, rng):
        signer, verifier = make_merkle_channel(sha1, rng)
        messages = [b"batch-%d" % i for i in range(8)]
        seq, delivered = drive_batch(signer, verifier, messages)
        assert delivered == messages
        cache = verifier._exchanges[seq].merkle_cache
        assert cache.hits == len(messages) - 1
        assert cache.misses == 1

    def test_batch_boundary_invalidates(self, sha1, rng):
        signer, verifier = make_merkle_channel(sha1, rng)
        first = [b"a%d" % i for i in range(8)]
        second = [b"b%d" % i for i in range(8)]
        seq1, _ = drive_batch(signer, verifier, first)
        seq2, delivered = drive_batch(signer, verifier, second, now=1.0)
        assert delivered == second
        assert seq2 != seq1
        cache1 = verifier._exchanges[seq1].merkle_cache
        cache2 = verifier._exchanges[seq2].merkle_cache
        # Distinct per-exchange caches: the second batch proved its own
        # root from scratch instead of inheriting stale nodes.
        assert cache2 is not cache1
        assert cache2.misses == 1 and cache2.hits == len(second) - 1

    def test_relay_cache_discarded_on_journal_restore(self, sha1, rng):
        harness = Harness(
            sha1, rng,
            config=merkle_config(reliability=ReliabilityMode.RELIABLE),
        )
        s1_raw, a1_raw = harness.open_exchange(
            [b"j%d" % i for i in range(8)], through_a1=True
        )
        # Verify the batch through the relay, warming its cache.
        delivered = harness.finish_exchange(a1_raw)
        assert len(delivered) == 8
        channel = harness.relay._associations[ASSOC].forward_channel
        seq, exchange = next(iter(channel.exchanges.items()))
        assert exchange.merkle_cache.hits + exchange.merkle_cache.misses > 0
        assert len(exchange.merkle_cache) > 0

        harness.crash_restart(now=1.0)
        # The journal carries anchors and digests, never proven-node
        # tables: the re-anchored exchange starts with a cold cache.
        restored = harness.relay._associations[ASSOC].forward_channel
        for ex in restored.exchanges.values():
            assert len(ex.merkle_cache) == 0
            assert ex.merkle_cache.hits == 0
        journal_text = str(harness.relay.snapshot())
        assert "merkle_cache" not in journal_text
