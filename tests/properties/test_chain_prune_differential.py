"""Differential property test: O(gap) derived-cache prune vs full scan.

``ChainVerifier`` prunes its derived-value cache incrementally: a commit
of gap ``g`` lowers the horizon by ``g``, so it pops only the ``g``
slots just above the new horizon, and it charges the gap walk to the
counter in one bulk record (PROTOCOL.md §14.1). Both are claimed to be
pure cost optimisations. The reference here, :class:`FullScanVerifier`,
is the straightforward version: one counted ``digest`` per walk step and
a prune that rebuilds the whole cache, keeping every entry strictly
above the trusted index and at or below the horizon. It applies the same
caching rule — a committed odd-position element (an admitted identity
token) never enters the cache.

Two verifiers, each with its own counter, run the same randomized
operations; after every step the return values, the trusted element,
the cache contents and the hash tallies must agree.
"""

from hypothesis import given, settings, strategies as st

from repro.core.hashchain import (
    ACKNOWLEDGMENT_TAGS,
    ChainElement,
    ChainVerifier,
    HashChain,
    SIGNATURE_TAGS,
)
from repro.crypto.hashes import OpCounter, get_hash

CHAIN_LENGTH = 300  # room for gaps beyond the largest window


class FullScanVerifier(ChainVerifier):
    """Reference: per-step counted hashing and a full-scan prune."""

    def verify(self, element, commit=True):
        trusted = self.trusted
        gap = trusted.index - element.index
        if gap <= 0 or gap > self.resync_window:
            return False
        odd, even = self.tags
        value = element.value
        derived = {}
        for index in range(element.index + 1, trusted.index + 1):
            value = self._hash.digest(
                (odd if index % 2 else even) + value, label="chain-verify"
            )
            if index < trusted.index:
                derived[index] = value
        if value != trusted.value:
            return False
        if commit:
            self._derived.update(derived)
            if trusted.index % 2 == 0:
                self._derived[trusted.index] = trusted.value
            self.trusted = element
            self._prune_derived(gap)
        return True

    def _prune_derived(self, gap):
        horizon = self.trusted.index + self.resync_window
        self._derived = {
            index: value
            for index, value in self._derived.items()
            if self.trusted.index < index <= horizon
        }


OPERATIONS = (
    "verify", "verify-no-commit", "verify_disclosure", "consume_derived", "admit"
)

steps = st.lists(
    st.tuples(
        st.sampled_from(OPERATIONS),
        st.integers(min_value=0, max_value=10_000),  # target offset
        st.booleans(),  # forged value
    ),
    min_size=1,
    max_size=60,
)


def tallies(counter: OpCounter):
    return counter.hash_ops, counter.hash_bytes, dict(counter.labels)


@settings(max_examples=150, deadline=None)
@given(
    window=st.sampled_from([1, 2, 3, 8, 128]),
    tags=st.sampled_from([SIGNATURE_TAGS, ACKNOWLEDGMENT_TAGS]),
    seed=st.binary(min_size=20, max_size=20),
    schedule=steps,
)
def test_incremental_prune_matches_full_scan(window, tags, seed, schedule):
    chain = HashChain(get_hash("sha1", OpCounter()), seed, CHAIN_LENGTH, tags=tags)
    fast_hash = get_hash("sha1", OpCounter())
    slow_hash = get_hash("sha1", OpCounter())
    fast = ChainVerifier(fast_hash, chain.anchor, tags=tags, resync_window=window)
    slow = FullScanVerifier(slow_hash, chain.anchor, tags=tags, resync_window=window)
    # Offsets span cached entries above the trusted index, fresh
    # elements inside the window, and claims just beyond it.
    span = 2 * window + 5
    accepted_tokens = set()
    for operation, offset, forged in schedule:
        index = fast.trusted.index + window + 2 - offset % span
        index = max(0, min(CHAIN_LENGTH, index))
        value = chain.value_at(index)
        if forged:
            value = bytes([value[0] ^ 1]) + value[1:]
        element = ChainElement(index, value)
        if operation == "verify-no-commit":
            results = [v.verify(element, commit=False) for v in (fast, slow)]
        else:
            results = [getattr(v, operation)(element) for v in (fast, slow)]
        assert results[0] == results[1], (operation, index, forged)
        assert fast.trusted == slow.trusted
        assert fast._derived == slow._derived
        assert tallies(fast_hash.counter) == tallies(slow_hash.counter)
        # Every cache entry lies strictly above the trusted index and
        # at or below the horizon; identity tokens authenticate once.
        for cached in fast._derived:
            assert fast.trusted.index < cached <= fast.trusted.index + window
        if operation in ("verify", "admit", "consume_derived") and index % 2:
            if results[0]:
                assert index not in accepted_tokens
                accepted_tokens.add(index)
