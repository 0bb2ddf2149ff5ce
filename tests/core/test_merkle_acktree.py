"""Merkle trees (ALPHA-M) and Acknowledgment Merkle Trees."""

import math

import pytest

from repro.core.acktree import AckTree, verify_ack_opening
from repro import analysis
from repro.core.merkle import MerkleTree, verify_merkle_path
from repro.core.packets import AckVerdict
from repro.crypto.drbg import DRBG

KEY = b"\xAA" * 20


class TestMerkleTree:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 16, 33])
    def test_all_leaves_verify(self, sha1, n):
        messages = [f"block-{i}".encode() for i in range(n)]
        tree = MerkleTree(sha1, messages)
        root = tree.root(KEY)
        for i, message in enumerate(messages):
            assert verify_merkle_path(sha1, message, i, tree.path(i), KEY, root)

    def test_depth_matches_log2(self, sha1):
        for n, depth in [(1, 0), (2, 1), (4, 2), (8, 3), (5, 3), (16, 4)]:
            tree = MerkleTree(sha1, [b"m"] * n)
            assert tree.depth == depth, n

    def test_forged_message_rejected(self, sha1):
        tree = MerkleTree(sha1, [b"a", b"b", b"c", b"d"])
        root = tree.root(KEY)
        assert not verify_merkle_path(sha1, b"evil", 0, tree.path(0), KEY, root)

    def test_wrong_index_rejected(self, sha1):
        tree = MerkleTree(sha1, [b"a", b"b", b"c", b"d"])
        root = tree.root(KEY)
        assert not verify_merkle_path(sha1, b"a", 1, tree.path(0), KEY, root)
        assert not verify_merkle_path(sha1, b"a", -1, tree.path(0), KEY, root)

    def test_wrong_key_rejected(self, sha1):
        tree = MerkleTree(sha1, [b"a", b"b"])
        root = tree.root(KEY)
        assert not verify_merkle_path(sha1, b"a", 0, tree.path(0), b"\xBB" * 20, root)

    def test_tampered_path_rejected(self, sha1):
        tree = MerkleTree(sha1, [b"a", b"b", b"c", b"d"])
        root = tree.root(KEY)
        path = tree.path(0)
        path[0] = b"\x00" * 20
        assert not verify_merkle_path(sha1, b"a", 0, path, KEY, root)

    def test_root_depends_on_every_leaf(self, sha1):
        base = [b"a", b"b", b"c", b"d"]
        root = MerkleTree(sha1, base).root(KEY)
        for i in range(4):
            mutated = list(base)
            mutated[i] = b"x"
            assert MerkleTree(sha1, mutated).root(KEY) != root

    def test_root_depends_on_key(self, sha1):
        tree = MerkleTree(sha1, [b"a", b"b"])
        assert tree.root(KEY) != tree.root(b"\xBB" * 20)

    def test_padding_leaf_cannot_pose_as_message(self, sha1):
        # 3 messages pad to 4 leaves; the pad pre-image is b"".
        tree = MerkleTree(sha1, [b"a", b"b", b"c"])
        root = tree.root(KEY)
        with pytest.raises(IndexError):
            tree.path(3)  # the owner never opens a pad leaf
        # Even if an attacker reconstructs the pad path, the message is
        # empty, which the protocol layer rejects before this check.
        assert not verify_merkle_path(sha1, b"pad?", 3, tree.path(2), KEY, root)

    def test_empty_tree_rejected(self, sha1):
        with pytest.raises(ValueError):
            MerkleTree(sha1, [])

    def test_path_bounds(self, sha1):
        tree = MerkleTree(sha1, [b"a", b"b"])
        with pytest.raises(IndexError):
            tree.path(2)

    def test_verification_cost_is_log_n(self, sha1):
        n = 16
        tree = MerkleTree(sha1, [b"m%d" % i for i in range(n)])
        root = tree.root(KEY)
        path = tree.path(5)
        before = sha1.counter.snapshot()
        assert verify_merkle_path(sha1, b"m5", 5, path, KEY, root)
        delta = sha1.counter.diff(before)
        # 1 leaf hash + (log2(16) - 1) inner + 1 keyed root = 5 ops.
        assert delta.hash_ops == int(math.log2(n)) + 1


class TestPathOverhead:
    """An S2's signature bytes, ``{Bc}`` plus the disclosed key, are what
    :func:`repro.analysis.per_packet_payload` takes off each packet."""

    @pytest.mark.parametrize(
        "n,expected",
        [(1, 20), (2, 40), (4, 60), (16, 100), (17, 120), (1024, 220)],
    )
    def test_overhead_formula(self, sha1, n, expected):
        tree = MerkleTree(sha1, [b"m"] * n)
        assert (len(tree.path(0)) + 1) * 20 == expected
        assert analysis.per_packet_payload(n, 1280, 20) == 1280 - expected

    def test_matches_constructed_trees(self, sha1):
        for n in (1, 2, 3, 8, 9, 30):
            tree = MerkleTree(sha1, [b"m"] * n)
            wire = (len(tree.path(0)) + 1) * 20  # path + disclosed key
            assert analysis.per_packet_payload(n, 1280, 20) == 1280 - wire

    def test_validation(self):
        with pytest.raises(ValueError):
            analysis.per_packet_payload(0, 1280, 20)


class TestAckTree:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_all_openings_verify(self, sha1, n):
        amt = AckTree(sha1, n, KEY, DRBG(1))
        for i in range(n):
            for is_ack in (True, False):
                opening = amt.open(i, is_ack)
                assert verify_ack_opening(sha1, opening, n, KEY, amt.root)

    def test_ack_nack_not_interchangeable(self, sha1):
        amt = AckTree(sha1, 4, KEY, DRBG(2))
        opening = amt.open(2, True)
        flipped = AckVerdict(2, False, opening.secret, opening.path)
        assert not verify_ack_opening(sha1, flipped, 4, KEY, amt.root)

    def test_wrong_message_index_rejected(self, sha1):
        amt = AckTree(sha1, 4, KEY, DRBG(3))
        opening = amt.open(2, True)
        moved = AckVerdict(1, True, opening.secret, opening.path)
        assert not verify_ack_opening(sha1, moved, 4, KEY, amt.root)

    def test_guessed_secret_rejected(self, sha1):
        amt = AckTree(sha1, 4, KEY, DRBG(4))
        opening = amt.open(0, True)
        forged = AckVerdict(0, True, b"\x00" * len(opening.secret), opening.path)
        assert not verify_ack_opening(sha1, forged, 4, KEY, amt.root)

    def test_wrong_key_rejected(self, sha1):
        amt = AckTree(sha1, 2, KEY, DRBG(5))
        opening = amt.open(0, True)
        assert not verify_ack_opening(sha1, opening, 2, b"\xCC" * 20, amt.root)

    def test_out_of_range_rejected(self, sha1):
        amt = AckTree(sha1, 2, KEY, DRBG(6))
        with pytest.raises(IndexError):
            amt.open(2, True)
        opening = amt.open(0, True)
        bad = AckVerdict(7, True, opening.secret, opening.path)
        assert not verify_ack_opening(sha1, bad, 2, KEY, amt.root)

    def test_secrets_fresh_per_tree(self, sha1):
        amt1 = AckTree(sha1, 2, KEY, DRBG(7))
        amt2 = AckTree(sha1, 2, KEY, DRBG(8))
        assert amt1.open(0, True).secret != amt2.open(0, True).secret
        assert amt1.root != amt2.root

    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    def test_secrets_are_slices_of_one_draw(self, sha1, n):
        """Both reliable modes share PROTOCOL.md §4's layout: a tree's 2n
        secrets are one 32·n-byte DRBG draw, message j's ack secret bytes
        [32j, 32j+16) of it and its nack secret bytes [32j+16, 32j+32)."""
        rng, twin = DRBG(b"amt-draw"), DRBG(b"amt-draw")
        seen: set[bytes] = set()
        for _ in range(2):
            amt = AckTree(sha1, n, KEY, rng)
            draw = twin.random_bytes(32 * n)
            secrets = []
            for j in range(n):
                ack, nack = amt.open(j, True), amt.open(j, False)
                assert type(ack) is AckVerdict and type(nack) is AckVerdict
                assert ack.secret == draw[32 * j : 32 * j + 16]
                assert nack.secret == draw[32 * j + 16 : 32 * j + 32]
                secrets += [ack.secret, nack.secret]
            # No secret repeats, within the tree or across consecutive trees.
            assert len(set(secrets)) == 2 * n
            assert seen.isdisjoint(secrets)
            seen.update(secrets)

    def test_empty_tree_rejected(self, sha1):
        with pytest.raises(ValueError):
            AckTree(sha1, 0, KEY, DRBG(9))

    def test_memory_shape_matches_table3(self, sha1):
        # The AMT holds 2n secrets and a 2n-leaf tree: the verifier-side
        # n*s + O(n)*h figure from Table 3.
        n = 8
        amt = AckTree(sha1, n, KEY, DRBG(10))
        assert len(amt._secrets) == 2 * n
        assert all(len(s) == 16 for s in amt._secrets)
