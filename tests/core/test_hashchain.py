"""Role-bound hash chains (paper Sections 2.1, 3.2.1)."""

import pytest

from repro.core.exceptions import AuthenticationError, ChainExhaustedError
from repro.core.hashchain import (
    ACKNOWLEDGMENT_TAGS,
    ChainElement,
    ChainVerifier,
    HashChain,
    SIGNATURE_TAGS,
)
from repro.crypto.hashes import OpCounter, get_hash


def make(sha1, rng, length=64, tags=SIGNATURE_TAGS):
    chain = HashChain(sha1, rng.random_bytes(20), length, tags=tags)
    return chain, ChainVerifier(sha1, chain.anchor, tags=tags)


def require(verifier, element):
    """Like ``verifier.verify`` but raises on failure."""
    if not verifier.verify(element):
        raise AuthenticationError(f"chain element {element.index} does not verify")


class TestConstruction:
    def test_anchor_is_last_element(self, sha1, rng):
        chain, _ = make(sha1, rng, length=10)
        assert chain.anchor.index == 10
        assert chain.anchor == chain.element(10)

    def test_role_tags_alternate(self, sha1, rng):
        chain, _ = make(sha1, rng, length=6)
        # h1 = H("S1"|h0), h2 = H("S2"|h1), ...
        for i in range(1, 7):
            tag = b"S1" if i % 2 else b"S2"
            expected = sha1.digest_uncounted(tag + chain.element(i - 1).value)
            assert chain.element(i).value == expected

    def test_ack_tags(self, sha1, rng):
        chain, _ = make(sha1, rng, length=4, tags=ACKNOWLEDGMENT_TAGS)
        expected = sha1.digest_uncounted(b"A1" + chain.element(0).value)
        assert chain.element(1).value == expected

    def test_creation_cost_is_length_hashes(self, sha1, rng):
        before = sha1.counter.hash_ops
        HashChain(sha1, rng.random_bytes(20), 32)
        assert sha1.counter.hash_ops - before == 32

    def test_odd_length_rejected(self, sha1, rng):
        with pytest.raises(ValueError):
            HashChain(sha1, rng.random_bytes(20), 7)

    def test_tiny_length_rejected(self, sha1, rng):
        with pytest.raises(ValueError):
            HashChain(sha1, rng.random_bytes(20), 0)

    def test_empty_seed_rejected(self, sha1):
        with pytest.raises(ValueError):
            HashChain(sha1, b"", 4)


class TestOwnerDisclosure:
    def test_exchange_order_and_parity(self, sha1, rng):
        chain, _ = make(sha1, rng, length=8)
        s1, key = chain.next_exchange()
        assert (s1.index, key.index) == (7, 6)
        assert s1.index % 2 == 1
        assert key.index % 2 == 0
        s1b, keyb = chain.next_exchange()
        assert (s1b.index, keyb.index) == (5, 4)

    def test_remaining_counters(self, sha1, rng):
        chain, _ = make(sha1, rng, length=8)
        assert chain.remaining_exchanges == 4
        chain.next_exchange()
        assert chain.remaining == 6
        assert chain.remaining_exchanges == 3

    def test_exhaustion(self, sha1, rng):
        chain, _ = make(sha1, rng, length=4)
        chain.next_exchange()
        chain.next_exchange()
        with pytest.raises(ChainExhaustedError):
            chain.next_exchange()

    def test_element_bounds(self, sha1, rng):
        chain, _ = make(sha1, rng, length=4)
        with pytest.raises(IndexError):
            chain.element(5)
        with pytest.raises(IndexError):
            chain.element(-1)


class TestVerifier:
    def test_sequential_verification(self, sha1, rng):
        chain, verifier = make(sha1, rng)
        for _ in range(4):
            s1, key = chain.next_exchange()
            assert verifier.verify(s1)
            assert verifier.verify(key)

    def test_single_step_costs_one_hash(self, sha1, rng):
        chain, verifier = make(sha1, rng)
        s1, _ = chain.next_exchange()
        before = sha1.counter.hash_ops
        verifier.verify(s1)
        assert sha1.counter.hash_ops - before == 1

    def test_gap_tolerance_costs_gap_hashes(self, sha1, rng):
        chain, verifier = make(sha1, rng)
        chain.next_exchange()  # lost entirely
        chain.next_exchange()  # lost entirely
        s1, _ = chain.next_exchange()
        before = sha1.counter.hash_ops
        assert verifier.verify(s1)
        assert sha1.counter.hash_ops - before == 5  # indices 59->64

    def test_replay_rejected(self, sha1, rng):
        chain, verifier = make(sha1, rng)
        s1, _ = chain.next_exchange()
        assert verifier.verify(s1)
        assert not verifier.verify(s1)

    def test_future_element_rejected(self, sha1, rng):
        chain, verifier = make(sha1, rng)
        anchor = chain.anchor
        assert not verifier.verify(anchor)  # gap 0

    def test_forged_element_rejected(self, sha1, rng):
        chain, verifier = make(sha1, rng)
        forged = ChainElement(63, b"\x00" * 20)
        assert not verifier.verify(forged)

    def test_wrong_index_claim_rejected(self, sha1, rng):
        chain, verifier = make(sha1, rng)
        s1, _ = chain.next_exchange()
        lied = ChainElement(s1.index - 2, s1.value)
        assert not verifier.verify(lied)

    def test_resync_window_bounds_work(self, sha1, rng):
        chain = HashChain(sha1, rng.random_bytes(20), 64)
        verifier = ChainVerifier(sha1, chain.anchor, resync_window=4)
        element = chain.element(64 - 5)
        assert not verifier.verify(element)  # gap 5 > window 4
        element = chain.element(64 - 4)
        assert verifier.verify(element)  # gap 4 allowed

    def test_commit_false_allows_reverification(self, sha1, rng):
        chain, verifier = make(sha1, rng)
        s1, _ = chain.next_exchange()
        assert verifier.verify(s1, commit=False)
        assert verifier.verify(s1, commit=False)
        assert verifier.trusted.index == 64

    def test_require_raises(self, sha1, rng):
        chain, verifier = make(sha1, rng)
        with pytest.raises(AuthenticationError):
            require(verifier, ChainElement(63, b"\x11" * 20))
        s1, _ = chain.next_exchange()
        require(verifier, s1)  # no raise

    def test_cross_role_elements_rejected(self, sha1, rng):
        # An element from an acknowledgment chain never verifies against
        # a signature-chain verifier, even at the right position: the
        # role tags differ.
        seed = rng.random_bytes(20)
        sig_chain = HashChain(sha1, seed, 8, tags=SIGNATURE_TAGS)
        ack_chain = HashChain(sha1, seed, 8, tags=ACKNOWLEDGMENT_TAGS)
        verifier = ChainVerifier(sha1, sig_chain.anchor, tags=SIGNATURE_TAGS)
        ack_element = ack_chain.element(7)
        assert not verifier.verify(ack_element)

    def test_bad_window_rejected(self, sha1, rng):
        chain, _ = make(sha1, rng)
        with pytest.raises(ValueError):
            ChainVerifier(sha1, chain.anchor, resync_window=0)


class TestResyncEdges:
    """Edge behaviour at the resync window and around cache pruning.

    Regression coverage for the interaction between gap-walk commits,
    the derived-value cache, and ``_prune_derived``: a prune must never
    discard an entry a legal disclosure or pipelined identity token can
    still claim, and must never touch the trusted element (which lives
    in ``verifier.trusted``, not the cache).
    """

    def test_gap_exactly_at_window_leaves_skipped_elements_claimable(
        self, sha1, rng
    ):
        chain = HashChain(sha1, rng.random_bytes(20), 64)
        verifier = ChainVerifier(sha1, chain.anchor, resync_window=4)
        assert verifier.verify(chain.element(60))  # gap == window
        # Every element skipped by the walk — and the old trusted anchor
        # — was derived as a by-product and stays disclosable.
        for index in (61, 62, 63, 64):
            assert verifier.verify_disclosure(chain.element(index))

    def test_gap_window_plus_one_rejected_without_side_effects(self, sha1, rng):
        chain = HashChain(sha1, rng.random_bytes(20), 64)
        verifier = ChainVerifier(sha1, chain.anchor, resync_window=4)
        assert not verifier.verify(chain.element(59))  # gap 5 > window 4
        assert verifier.trusted.index == 64
        assert not verifier._derived  # rejection cached nothing
        assert verifier.verify(chain.element(63))  # chain still advances

    def test_prune_keeps_horizon_entry_and_drops_stale_ones(self, sha1, rng):
        # The prune runs on every commit. Three gap-2 commits: 64->62
        # caches {63, 64}, ->60 caches {61, 62} (dropping the now-dead
        # 63, 64), ->58 caches {59, 60} with horizon 58 + 2 = 60.
        chain = HashChain(sha1, rng.random_bytes(20), 64)
        verifier = ChainVerifier(sha1, chain.anchor, resync_window=2)
        for index in (62, 60, 58):
            assert verifier.verify(chain.element(index))
        assert sorted(verifier._derived) == [59, 60]
        # The entry exactly at the horizon (a commit with gap == window
        # produced it) must survive; entries above it can never verify
        # again and are gone.
        assert verifier.verify_disclosure(chain.element(60))
        assert verifier.verify_disclosure(chain.element(59))
        assert not verifier.verify_disclosure(chain.element(61))

    def test_prune_never_discards_trusted_element(self, sha1, rng):
        chain = HashChain(sha1, rng.random_bytes(20), 64)
        verifier = ChainVerifier(sha1, chain.anchor, resync_window=2)
        for index in (62, 60, 58):
            assert verifier.verify(chain.element(index))
        # The trusted element is held in ``trusted`` itself, never in
        # the cache, so the prune cannot invalidate forward progress.
        assert verifier.trusted.index not in verifier._derived
        assert verifier.trusted == chain.element(58)
        assert verifier.verify(chain.element(57))  # gap 1 still works

    def test_cache_bounded_on_long_in_order_run(self, sha1, rng):
        # Regression: the prune used to fire only once the cache grew
        # past 2 * resync_window, so a long-lived association whose
        # commits kept the cache just under the trigger accumulated dead
        # entries at or below the trusted index indefinitely. Pruning on
        # every commit makes the cache size a function of the window
        # alone: walk a long chain strictly in order with occasional
        # gaps and the cache never exceeds the window.
        chain = HashChain(sha1, rng.random_bytes(20), 512)
        window = 8
        verifier = ChainVerifier(sha1, chain.anchor, resync_window=window)
        index = 64 * 8
        step = 1
        while index > step:
            index -= step
            assert verifier.verify(chain.element(index))
            assert len(verifier._derived) <= window, index
            # Every cached entry is still claimable: strictly above the
            # trusted index, at or below the horizon.
            for cached in verifier._derived:
                assert verifier.trusted.index < cached
                assert cached <= verifier.trusted.index + window
            step = 1 + (index % 3)  # mix gap-1/2/3 commits

    def test_consume_derived_single_use_across_prune(self, sha1, rng):
        chain = HashChain(sha1, rng.random_bytes(20), 64)
        verifier = ChainVerifier(sha1, chain.anchor, resync_window=2)
        for index in (62, 60, 58):
            assert verifier.verify(chain.element(index))
        # A forged claim must not burn the genuine cache entry ...
        assert not verifier.consume_derived(ChainElement(60, b"\x00" * 20))
        # ... which then authenticates exactly once.
        assert verifier.consume_derived(chain.element(60))
        assert not verifier.consume_derived(chain.element(60))

    @pytest.mark.parametrize("tags", [SIGNATURE_TAGS, ACKNOWLEDGMENT_TAGS])
    def test_committed_identity_token_never_readmitted(self, sha1, rng, tags):
        # Regression: the commit of the key below a token cached the
        # token itself (the old trusted element), so ``admit`` accepted
        # it a second time via ``consume_derived`` — after its MAC key
        # had been disclosed.
        chain, verifier = make(sha1, rng, tags=tags)
        token, key = chain.element(63), chain.element(62)
        assert verifier.verify(token)
        assert verifier.verify_disclosure(key)
        assert 63 not in verifier._derived
        assert not verifier.admit(token)


class WalkVerifier(ChainVerifier):
    """Reference: every gap, 1 and 2 included, takes the general walk."""

    def verify(self, element, commit=True):
        trusted = self.trusted
        gap = trusted.index - element.index
        if gap <= 0 or gap > self.resync_window:
            return False
        odd, even = self.tags
        value = element.value
        derived = {}
        for index in range(element.index + 1, trusted.index + 1):
            value = self._raw((odd if index & 1 else even) + value)
            if index < trusted.index:
                derived[index] = value
        self._hash.counter.record_hash_batch(
            gap,
            gap * len(odd) + len(element.value) + (gap - 1) * self._hash.digest_size,
            "chain-verify",
        )
        if value != trusted.value:
            return False
        if commit:
            self._derived.update(derived)
            if not trusted.index & 1:
                self._derived[trusted.index] = trusted.value
            self.trusted = element
            self._prune_derived(gap)
        return True


class TestGapTwo:
    """The unrolled gap-2 check against the general walk.

    Every A1 of an unreliable exchange verifies at gap 2, so
    :meth:`ChainVerifier.verify` unrolls it. Over windows, tag sets,
    the trusted index's parity, commit and hash functions, a forged
    and a genuine gap-2 element go to both verifiers in turn; after
    every call the result, the trusted element, the derived cache (in
    insertion order) and the counter tallies must agree.
    """

    LENGTH = 40

    @staticmethod
    def tallies(counter: OpCounter):
        return counter.hash_ops, counter.hash_bytes, dict(counter.labels)

    @pytest.mark.parametrize("hash_name", ["sha1", "sha256", "mmo", "sha1-8"])
    @pytest.mark.parametrize("commit", [True, False])
    @pytest.mark.parametrize("odd_start", [False, True])
    @pytest.mark.parametrize("tags", [SIGNATURE_TAGS, ACKNOWLEDGMENT_TAGS])
    @pytest.mark.parametrize("window", [1, 2, 128])
    def test_matches_the_general_walk(self, hash_name, commit, odd_start, tags, window):
        chain = HashChain(get_hash(hash_name), b"gap-two-seed", self.LENGTH, tags=tags)
        fast, walk = (
            cls(get_hash(hash_name, OpCounter()), chain.anchor, tags, window)
            for cls in (ChainVerifier, WalkVerifier)
        )
        accepted = 0

        def check(element, commit=True):
            got = fast.verify(element, commit=commit)
            assert got == walk.verify(element, commit=commit), element
            assert fast.trusted == walk.trusted
            assert list(fast._derived.items()) == list(walk._derived.items())
            assert self.tallies(fast._hash.counter) == self.tallies(
                walk._hash.counter
            )
            return got

        if odd_start:
            assert check(chain.element(self.LENGTH - 1))
        while fast.trusted.index >= 3:
            target = fast.trusted.index - 2
            genuine = chain.value_at(target)
            forged = bytes([genuine[0] ^ 1]) + genuine[1:]
            assert not check(ChainElement(target, forged), commit)
            if check(chain.element(target), commit):
                accepted += 1
            if fast.trusted.index != target:
                # Not committed: step down by one, which flips the
                # trusted index's parity for the next gap-2 check.
                assert check(chain.element(fast.trusted.index - 1))
        # Window 1 refuses every gap 2; the others accept each genuine one.
        assert (accepted > 0) == (window > 1)
