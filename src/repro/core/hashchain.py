"""Role-bound one-way hash chains.

The fundamental ALPHA data structure (paper Sections 2.1 and 3.2.1). A
chain is built by iterating ``H_i = H(tag(i) | H_{i-1})`` from a random
seed ``H_0``, where ``tag`` alternates between two role strings — "S1"
for odd positions and "S2" for even positions on signature chains. The
role binding makes elements destined for S1 authentication structurally
distinguishable from MAC-key elements, which defeats the reformatting
attack described in Section 3.2.1: an attacker cannot take an element
disclosed in an S2 packet and replay it in the S1 role.

Elements are used in reverse order of creation. The *anchor* ``H_n`` is
exchanged at bootstrap; each basic exchange then consumes two elements —
an odd one (sent in S1 as an identity token) and the even one below it
(used as MAC key, disclosed in S2).

The chain length ``n`` must be even so the anchor sits at an even
position and the first disclosed element is S1-typed.

Hot-path layout (PROTOCOL.md §14): a chain's ``n`` elements live in one
contiguous immutable ``bytes`` buffer, ``digest_size`` bytes per
position, built by a single tight loop over the raw hash callable at
construction time (the work is charged to the operation counter in one
bulk record — same tallies, none of the per-call bookkeeping).
:meth:`HashChain.element` slices the buffer. :class:`ChainElement` is a
``NamedTuple`` so the pairs the hot path does allocate are tuple-cheap.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.exceptions import AuthenticationError, ChainExhaustedError
from repro.crypto.hashes import HashFunction

#: Role tag pairs: (odd-position tag, even-position tag).
SIGNATURE_TAGS = (b"S1", b"S2")
ACKNOWLEDGMENT_TAGS = (b"A1", b"A2")


def _tag_for(index: int, tags: tuple[bytes, bytes]) -> bytes:
    return tags[0] if index % 2 else tags[1]


class ChainElement(NamedTuple):
    """One disclosed or disclosable chain element."""

    index: int
    value: bytes


def _build_chain(
    hash_fn: HashFunction,
    seed: bytes,
    length: int,
    tags: tuple[bytes, bytes],
) -> bytes:
    """One contiguous buffer holding positions ``1..length``.

    Position ``i`` lives at ``[(i - 1) * h : i * h]``. The seed
    (position 0) is *not* in the buffer — it may be any length, while
    the buffer is strictly ``digest_size``-strided. The whole build is
    one loop over the raw hash callable; the counter is charged in bulk
    afterwards with the exact per-call tallies (``length`` operations,
    ``len(tag) + input`` bytes each), so Table 1 accounting is
    unchanged.
    """
    raw = hash_fn.raw
    h = hash_fn.digest_size
    odd, even = tags
    buf = bytearray(length * h)
    value = raw(odd + seed)  # position 1 is odd by construction
    buf[0:h] = value
    pos = h
    for index in range(2, length + 1):
        value = raw((odd if index & 1 else even) + value)
        buf[pos : pos + h] = value
        pos += h
    tag_len = len(odd)  # role tags are the same width by convention
    hashed_bytes = (tag_len + len(seed)) + (length - 1) * (tag_len + h)
    hash_fn.counter.record_hash_batch(length, hashed_bytes, "chain-create")
    return bytes(buf)


class HashChain:
    """The owner's side of a chain: generation and ordered disclosure.

    Parameters
    ----------
    hash_fn:
        The hash to build the chain with; construction is counted on its
        operation counter (``n`` fixed-input hashes — the paper's
        off-line-computable "HC create" column).
    seed:
        Random secret, ideally ``hash_fn.digest_size`` bytes.
    length:
        Number of iterations ``n`` (must be even and >= 2). Supports
        ``length // 2`` signature exchanges.
    tags:
        Role tag pair; use :data:`SIGNATURE_TAGS` or
        :data:`ACKNOWLEDGMENT_TAGS`.
    """

    def __init__(
        self,
        hash_fn: HashFunction,
        seed: bytes,
        length: int,
        tags: tuple[bytes, bytes] = SIGNATURE_TAGS,
    ) -> None:
        if length < 2 or length % 2:
            raise ValueError(f"chain length must be even and >= 2, got {length}")
        if not seed:
            raise ValueError("seed must be non-empty")
        self._hash = hash_fn
        self.tags = tags
        self.length = length
        self._seed = seed
        self._width = hash_fn.digest_size
        self._buf = _build_chain(hash_fn, seed, length, tags)
        # Position of the most recently disclosed element; starts at the
        # anchor, which is public by definition.
        self._cursor = length

    @property
    def anchor(self) -> ChainElement:
        """The public end of the chain, exchanged at bootstrap."""
        return ChainElement(self.length, self.value_at(self.length))

    @property
    def remaining(self) -> int:
        """Undisclosed elements left (excluding the seed)."""
        return self._cursor

    @property
    def remaining_exchanges(self) -> int:
        """Complete two-element exchanges the chain can still support."""
        return self._cursor // 2

    def value_at(self, index: int) -> bytes:
        """Element value by position — one slice, no wrapper object."""
        if not 0 <= index <= self.length:
            raise IndexError(f"chain position {index} out of range 0..{self.length}")
        if index == 0:
            return self._seed
        start = (index - 1) * self._width
        return self._buf[start : start + self._width]

    def element(self, index: int) -> ChainElement:
        """Access an element by position (owner-side only)."""
        return ChainElement(index, self.value_at(index))

    def next_exchange(self) -> tuple[ChainElement, ChainElement]:
        """Consume one exchange worth of elements.

        Returns ``(s1_element, mac_key_element)``: the odd-position
        identity token for the S1 packet and the even-position element
        one step down that keys the MAC and is disclosed in S2.
        """
        cursor = self._cursor
        if cursor < 2:
            raise ChainExhaustedError(
                f"chain exhausted after {self.length // 2} exchanges"
            )
        self._cursor = cursor - 2
        width = self._width
        # cursor >= 2, so the odd position is >= 1: straight buffer math.
        # The even position hits 0 (the seed, outside the buffer) only on
        # the chain's very last exchange.
        top = (cursor - 1) * width
        key = self._buf[top - 2 * width : top - width] if cursor > 2 else self._seed
        return (
            ChainElement(cursor - 1, self._buf[top - width : top]),
            ChainElement(cursor - 2, key),
        )


class ChainVerifier:
    """The receiving side: verifies disclosed elements against an anchor.

    Tracks the last accepted element and verifies a newly disclosed one
    by hashing it forward (applying the correct role tags per position)
    until it meets the trusted value. The allowed gap is bounded by
    ``resync_window`` so an attacker cannot make a verifier burn
    unbounded CPU with a far-past claim; lost packets within the window
    are tolerated, matching the paper's loss-tolerance discussion.
    """

    def __init__(
        self,
        hash_fn: HashFunction,
        anchor: ChainElement,
        tags: tuple[bytes, bytes] = SIGNATURE_TAGS,
        resync_window: int = 128,
    ) -> None:
        if resync_window < 1:
            raise ValueError("resync window must be at least 1")
        self._hash = hash_fn
        self.tags = tags
        self.resync_window = resync_window
        self.trusted = anchor
        # Chain values *derived* while walking verification gaps. When a
        # packet carrying element i is lost and element i-2 verifies with
        # gap 2, the walk computes the genuine value at position i as a
        # by-product; caching it lets a late disclosure of i (reordered
        # S2/A2) still authenticate. Only disclosures may use this cache
        # — identity tokens (S1/A1) must strictly advance the chain, or
        # an attacker could replay public elements as fresh identities.
        # So a committed odd-position element (an admitted token) never
        # enters it; a committed even-position key may.
        self._derived: dict[int, bytes] = {}

    def verify(self, element: ChainElement, commit: bool = True) -> bool:
        """Check that ``element`` freshly extends the chain downward.

        On success with ``commit=True`` the verifier advances its trusted
        element, so each element can authenticate only once (freshness).
        The gap walk runs on the raw hash callable and is charged to the
        counter in one bulk record (identical tallies to per-call).
        """
        trusted = self.trusted
        trusted_index = trusted.index
        gap = trusted_index - element.index
        if gap == 1:
            # The in-order case: one hash, one compare, and the one
            # prune slot a gap-1 commit kills. Nothing is derived.
            tag = self.tags[0] if trusted_index & 1 else self.tags[1]
            self._hash.counter.record_hash(
                len(tag) + len(element.value), "chain-verify"
            )
            if self._hash.raw(tag + element.value) != trusted.value:
                return False
            if commit:
                if not trusted_index & 1:
                    self._derived[trusted_index] = trusted.value
                self.trusted = element
                self._derived.pop(trusted_index + self.resync_window, None)
            return True
        if gap <= 0 or gap > self.resync_window:
            return False
        raw = self._hash.raw
        odd, even = self.tags
        value = element.value
        derived = {}
        for index in range(element.index + 1, trusted_index + 1):
            value = raw((odd if index & 1 else even) + value)
            if index < trusted_index:
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
            if not trusted_index & 1:
                self._derived[trusted_index] = trusted.value
            self.trusted = element
            self._prune_derived(gap)
        return True

    def verify_disclosure(self, element: ChainElement) -> bool:
        """Check a *disclosed* element (an S2/A2 key).

        Accepts either a fresh extension of the chain (the common
        in-order case, committing as :meth:`verify` does) or a value
        derived earlier while walking a gap (a disclosure whose packet
        was overtaken by the next exchange's S1).
        """
        cached = self._derived.get(element.index)
        if cached is not None:
            return cached == element.value
        return self.verify(element)

    def consume_derived(self, element: ChainElement) -> bool:
        """Single-use acceptance of a derived identity element.

        Pipelined exchanges can deliver identity tokens (S1/A1) out of
        order: the token of exchange *k+1* commits the verifier past the
        token of exchange *k*, whose genuine value was derived during
        the gap walk. This accepts such a token exactly once — the cache
        entry is consumed — so a replayed token can never authenticate a
        second time. Callers must still bind the token to its exchange
        (sequence number, echo field) as the engines do.
        """
        cached = self._derived.pop(element.index, None)
        if cached is None:
            return False
        if cached != element.value:
            # Don't let a forgery burn the genuine entry.
            self._derived[element.index] = cached
            return False
        return True

    def admit(self, element: ChainElement) -> bool:
        """Admit an identity token (S1/A1): :meth:`verify` it, or accept
        it once from the derived cache when a pipelined later token
        overtook it (:meth:`consume_derived`)."""
        return self.verify(element) or self.consume_derived(element)

    def _prune_derived(self, gap: int) -> None:
        # Entries above the horizon can never verify again (a fresh
        # element would need gap > resync_window). Every entry lies
        # strictly above the trusted index and at or below the horizon;
        # a commit of ``gap`` adds entries at or below the old trusted
        # index and lowers the horizon by ``gap``, so only the ``gap``
        # slots just above the new horizon can hold dead entries.
        # Popping them on every commit keeps the cache size a function
        # of the window alone, at O(gap) cost.
        horizon = self.trusted.index + self.resync_window
        for index in range(horizon + 1, horizon + gap + 1):
            self._derived.pop(index, None)

    def require(self, element: ChainElement, commit: bool = True) -> None:
        """Like :meth:`verify` but raises on failure."""
        if not self.verify(element, commit=commit):
            raise AuthenticationError(
                f"chain element at index {element.index} does not verify against "
                f"trusted index {self.trusted.index}"
            )


class CheckpointedHashChain:
    """Owner-side chain with O(n/k + k) memory.

    A plain :class:`HashChain` stores all ``n`` elements — fine on a
    workstation, heavy on a sensor node (a 2048-element SHA-1 chain is
    40 KiB, five times the AquisGrain's RAM). This variant keeps only
    every ``k``-th element and rebuilds the active segment on demand:
    worst-case ``k`` extra hashes per access, amortized far less because
    ALPHA walks the chain strictly downward.

    The interface mirrors :class:`HashChain`, so signer sessions accept
    either (duck-typed). Recomputation is charged to the hash counter
    under the label ``"chain-recompute"`` so benchmarks can separate it
    from protocol work.
    """

    def __init__(
        self,
        hash_fn: HashFunction,
        seed: bytes,
        length: int,
        tags: tuple[bytes, bytes] = SIGNATURE_TAGS,
        checkpoint_interval: int = 64,
    ) -> None:
        if length < 2 or length % 2:
            raise ValueError(f"chain length must be even and >= 2, got {length}")
        if not seed:
            raise ValueError("seed must be non-empty")
        if checkpoint_interval < 2:
            raise ValueError("checkpoint interval must be at least 2")
        self._hash = hash_fn
        self.tags = tags
        self.length = length
        self.checkpoint_interval = checkpoint_interval
        # Build once, keeping checkpoints at positions 0, k, 2k, ...
        # One raw-hash loop + bulk accounting, like HashChain.
        raw = hash_fn.raw
        odd, even = tags
        self._checkpoints: dict[int, bytes] = {0: seed}
        value = seed
        for index in range(1, length + 1):
            value = raw((odd if index & 1 else even) + value)
            if index % checkpoint_interval == 0 or index == length:
                self._checkpoints[index] = value
        tag_len = len(odd)
        hash_fn.counter.record_hash_batch(
            length,
            (tag_len + len(seed)) + (length - 1) * (tag_len + hash_fn.digest_size),
            "chain-create",
        )
        self._anchor_value = value
        self._cursor = length
        # Cache of the segment currently being consumed.
        self._segment_base = -1
        self._segment: list[bytes] = []

    @property
    def anchor(self) -> ChainElement:
        return ChainElement(self.length, self._anchor_value)

    @property
    def remaining(self) -> int:
        return self._cursor

    @property
    def remaining_exchanges(self) -> int:
        return self._cursor // 2

    @property
    def stored_elements(self) -> int:
        """Elements held in memory right now (checkpoints + segment)."""
        return len(self._checkpoints) + len(self._segment)

    def element(self, index: int) -> ChainElement:
        if not 0 <= index <= self.length:
            raise IndexError(f"chain position {index} out of range 0..{self.length}")
        cached = self._checkpoints.get(index)
        if cached is not None:
            return ChainElement(index, cached)
        base = (index // self.checkpoint_interval) * self.checkpoint_interval
        if self._segment_base != base:
            if base not in self._checkpoints:
                # The checkpoint this element depends on was pruned when
                # the cursor walked below it (_rebuild_segment drops
                # checkpoints above the consumption horizon). Already-
                # disclosed elements are never needed again, so the value
                # is permanently unavailable by design — say so, instead
                # of leaking a bare KeyError from the checkpoint dict.
                raise IndexError(
                    f"chain position {index} lies above the pruned horizon "
                    f"(cursor {self._cursor}, interval "
                    f"{self.checkpoint_interval}) and is permanently "
                    "unavailable"
                )
            self._rebuild_segment(base)
        return ChainElement(index, self._segment[index - base])

    def _rebuild_segment(self, base: int) -> None:
        value = self._checkpoints[base]
        segment = [value]
        top = min(base + self.checkpoint_interval, self.length)
        for index in range(base + 1, top + 1):
            value = self._hash.digest(
                _tag_for(index, self.tags) + value, label="chain-recompute"
            )
            segment.append(value)
        self._segment_base = base
        self._segment = segment
        # Checkpoints above the cursor will never be needed again.
        horizon = self._cursor + self.checkpoint_interval
        self._checkpoints = {
            i: v for i, v in self._checkpoints.items() if i <= horizon
        }

    def next_exchange(self) -> tuple[ChainElement, ChainElement]:
        if self._cursor < 2:
            raise ChainExhaustedError(
                f"chain exhausted after {self.length // 2} exchanges"
            )
        s1 = self.element(self._cursor - 1)
        key = self.element(self._cursor - 2)
        self._cursor -= 2
        return s1, key
