"""AMT openings through the exchange's proven-node cache (§14.3).

The signer and every relay check each (n)ack opening of an A2 against
the AMT root of the exchange's A1. Like the S2 check, that check runs
through the exchange's :class:`MerkleVerifyCache`, so a batch of ``n``
openings costs one full fold and ``n - 1`` short ones. These tests pin
that the cache keeps the AMT's meaning intact: an opening still proves
exactly one (message, ack-or-nack) pair, and knowing one leaf of a
message gives no way to open its other one. They also pin where the
cache lives: one per exchange at the signer (only when its A1 carries
an AMT root) and at each relay, never in a relay's crash journal.
"""

import dataclasses

import pytest

from repro.canonical import CanonicalChannel
from repro.core.acktree import AckTree, verify_ack_opening
from repro.core.merkle import MerkleVerifyCache
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import decode_packet
from repro.core.signer import ChannelConfig
from repro.crypto.drbg import DRBG

from tests.core.test_relay_journal import ASSOC, H, Harness

N = 8
KEY = b"\x3c" * H
RELIABLE = ReliabilityMode.RELIABLE


@pytest.fixture
def amt(sha1):
    return AckTree(sha1, N, KEY, DRBG(b"amt-cache"))


def check(sha1, amt, opening, cache=None):
    return verify_ack_opening(sha1, opening, N, KEY, amt.root, cache)


class TestWarmCacheSoundness:
    @pytest.fixture
    def cache(self, sha1, amt):
        """Every ack leaf proven, as after a fully delivered batch."""
        cache = MerkleVerifyCache()
        for index in range(N):
            assert check(sha1, amt, amt.open(index, True), cache)
        assert (cache.misses, cache.hits) == (1, N - 1)
        return cache

    def test_flipped_is_ack_rejected(self, sha1, amt, cache):
        for index in range(N):
            ack = amt.open(index, True)
            assert not check(sha1, amt, dataclasses.replace(ack, is_ack=False), cache)
            nack = amt.open(index, False)
            assert not check(sha1, amt, dataclasses.replace(nack, is_ack=True), cache)

    def test_swapped_msg_index_rejected(self, sha1, amt, cache):
        ack = amt.open(2, True)
        for other in (1, 3, 6):
            swapped = dataclasses.replace(ack, msg_index=other)
            assert not check(sha1, amt, swapped, cache)

    def test_forged_secret_rejected(self, sha1, amt, cache):
        ack = amt.open(5, True)
        for secret in (bytes(16), ack.secret[:-1] + b"\x00", ack.secret + b"\x00"):
            forged = dataclasses.replace(ack, secret=secret)
            assert not check(sha1, amt, forged, cache)

    def test_nack_of_an_acked_message_needs_the_nack_secret(
        self, sha1, amt, cache
    ):
        ack, nack = amt.open(4, True), amt.open(4, False)
        assert ack.secret != nack.secret
        # The proven ack leaf lends nothing to its nack twin.
        assert not check(sha1, amt, dataclasses.replace(nack, secret=ack.secret), cache)
        hits = cache.hits
        assert check(sha1, amt, nack, cache)
        assert cache.hits == hits + 1  # the nack half's top node was proven

    def test_damaged_upper_path_accepted_once_the_leaf_is_proven(
        self, sha1, amt, cache
    ):
        # Documented (PROTOCOL.md §14.3): the claim is membership of the
        # opened leaf under the committed root. Once the cache has proven
        # that leaf, the branches are redundant, so a damaged path of the
        # right length on a repeated A2 no longer costs the verdict.
        ack = amt.open(3, True)
        damaged = dataclasses.replace(ack, path=[b"\x00" * H] * len(ack.path))
        assert check(sha1, amt, damaged, cache)
        assert not check(sha1, amt, damaged)  # a cold check still folds

    def test_failed_check_deposits_nothing(self, sha1, amt):
        cache = MerkleVerifyCache()
        forged = dataclasses.replace(amt.open(0, True), secret=bytes(16))
        assert not check(sha1, amt, forged, cache)
        assert len(cache) == 0 and cache.node(amt.root, 0, 0) is None
        assert (cache.hits, cache.misses) == (0, 1)


class TestExchangeCaches:
    def test_signer_and_relay_record_n_minus_one_hits(self, rng):
        channel = CanonicalChannel(
            rng,
            ChannelConfig(mode=Mode.MERKLE, batch_size=N, reliability=RELIABLE),
            assoc_id=ASSOC,
        )
        messages = [b"amt-%d" % i for i in range(N)]
        for message in messages:
            channel.signer.submit(message)
        s2s, now = channel.start()
        (exchange,) = channel.signer._exchanges.values()
        signer_cache = exchange.merkle_cache
        relay_cache = (
            channel.relay._associations[ASSOC]
            .forward_channel.exchanges[exchange.seq]
            .merkle_cache
        )
        delivered, _ = channel.finish(s2s, now)
        assert [m.message for m in delivered] == messages
        assert channel.signer.idle
        # The signer checks only the N openings.
        assert (signer_cache.misses, signer_cache.hits) == (1, N - 1)
        assert signer_cache.node(exchange.amt_root, 0, 0) is not None
        # The relay checks the N S2 paths and the N openings: one full
        # fold per root, N - 1 short ones each.
        assert (relay_cache.misses, relay_cache.hits) == (2, 2 * (N - 1))

    @pytest.mark.parametrize(
        "mode,reliability,cached",
        [
            (Mode.MERKLE, RELIABLE, True),
            (Mode.MERKLE_CUMULATIVE, RELIABLE, True),
            (Mode.CUMULATIVE, RELIABLE, False),  # flat pre-(n)acks
            (Mode.BASE, RELIABLE, False),
        ],
    )
    def test_signer_cache_only_with_an_amt_root(self, rng, mode, reliability, cached):
        channel = CanonicalChannel(
            rng, ChannelConfig(mode=mode, batch_size=4, reliability=reliability)
        )
        for i in range(4):
            channel.signer.submit(b"x%d" % i)
        channel.start()
        for exchange in channel.signer._exchanges.values():
            assert (exchange.amt_root is not None) is cached
            assert (type(exchange.merkle_cache) is MerkleVerifyCache) is cached

    def test_relay_journal_never_carries_the_cache(self, sha1, rng):
        harness = Harness(
            sha1, rng,
            config=ChannelConfig(mode=Mode.MERKLE, batch_size=N, reliability=RELIABLE),
        )
        s1_raw, a1_raw = harness.open_exchange(
            [b"j%d" % i for i in range(N)], through_a1=True
        )
        s2s = harness.signer.handle_a1(decode_packet(a1_raw, H), 0.0)
        half = N // 2
        delivered, _ = harness.finish(s2s[:half])
        assert len(delivered) == half
        channel = harness.relay._associations[ASSOC].forward_channel
        (exchange,) = channel.exchanges.values()
        warm = exchange.merkle_cache
        assert (warm.misses, warm.hits) == (2, 2 * (half - 1))
        proven = [warm.node(exchange.amt_root, 0, leaf).hex() for leaf in range(2)]

        journal = harness.crash_restart(now=1.0)
        text = str(journal)
        assert "merkle_cache" not in text
        assert not any(node in text for node in proven)

        # Re-anchored from the re-presented S1 and A1, the exchange
        # starts cold and re-proves its roots from scratch.
        assert harness.s_to_v(s1_raw, 1.0).reason == "s1-reanchored"
        assert harness.v_to_s(a1_raw, 1.0).reason == "a1-rejournaled"
        restored = harness.relay._associations[ASSOC].forward_channel
        (exchange,) = restored.exchanges.values()
        cold = exchange.merkle_cache
        assert cold is not warm
        assert (len(cold), cold.hits, cold.misses) == (0, 0, 0)
        assert harness.s_to_v(s2s[half], 1.0).reason == "s2-ok"
        assert (cold.hits, cold.misses) == (0, 1)
