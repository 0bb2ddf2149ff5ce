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

Hot-path layout (PROTOCOL.md §14.1): a chain's ``n`` elements live in
one contiguous immutable ``bytes`` buffer, ``digest_size`` bytes per
position. Every chain is built by one walk, :func:`_walk`, over the raw
hash callable, two positions per turn, charged to the operation counter
in one bulk record (same tallies, none of the per-call bookkeeping).
:meth:`HashChain.element` slices the buffer. :class:`ChainElement`
is a ``NamedTuple``, whose own ``__new__`` is a Python frame; the
decode-side sites, which build one per packet, call :data:`new_element`
instead, ``tuple.__new__`` bound to the class, which builds the same
instance in C. :meth:`ChainVerifier.verify` unrolls gaps 1 and 2 (every
in-order check, and every A1 of an unreliable exchange) and walks any
larger gap.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from repro.core.exceptions import ChainExhaustedError
from repro.crypto.hashes import HashFunction

#: Role tag pairs: (odd-position tag, even-position tag).
SIGNATURE_TAGS = (b"S1", b"S2")
ACKNOWLEDGMENT_TAGS = (b"A1", b"A2")


class ChainElement(NamedTuple):
    """One disclosed or disclosable chain element."""

    index: int
    value: bytes


#: ``new_element((index, value))`` is ``ChainElement(index, value)``
#: built in C, without the NamedTuple's Python-level ``__new__``.
new_element = functools.partial(tuple.__new__, ChainElement)


def _walk(
    hash_fn: HashFunction,
    value: bytes,
    start: int,
    count: int,
    tags: tuple[bytes, bytes],
    label: str,
) -> bytes:
    """Positions ``start + 1 .. start + count``, grown from ``value``.

    ``value`` is the element at position ``start`` (the seed when
    ``start`` is 0, so it may be any length); the result holds the
    ``count`` new elements back to back, ``digest_size`` bytes each.
    The walk goes two positions per turn with both role tags bound
    once, so the loop body is two concatenations, two raw hashes and
    two appends; an odd ``count`` ends on one last position. Each
    digest is appended with ``+=`` and the buffer frozen once: a
    preallocated buffer's slice assignment and index arithmetic cost
    more, and a list of digests joined at the end costs four times the
    peak memory (PROTOCOL.md §14.1). The counter is charged in one
    bulk record with the exact per-call tallies (``count`` operations,
    ``len(tag) + input`` bytes each), so Table 1 accounting is
    unchanged.
    """
    raw = hash_fn.raw
    first, second = tags if start % 2 == 0 else (tags[1], tags[0])
    hashed_bytes = count * len(first) + len(value) + (count - 1) * hash_fn.digest_size
    buf = bytearray()
    for _ in range(count // 2):
        value = raw(first + value)
        buf += value
        value = raw(second + value)
        buf += value
    if count % 2:
        buf += raw(first + value)
    hash_fn.counter.record_hash_batch(count, hashed_bytes, label)
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
        self._buf = _walk(hash_fn, seed, 0, length, tags, "chain-create")
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
        self._raw = hash_fn.raw
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
        Gaps 1 and 2 are unrolled: the in-order case, and every A1 of an
        unreliable exchange (PROTOCOL.md §14.1).
        """
        trusted = self.trusted
        trusted_index = trusted.index
        gap = trusted_index - element.index
        if gap == 1:
            # The in-order case: one hash, one compare, and the one
            # prune slot a gap-1 commit kills. Nothing is derived.
            tag = self.tags[0] if trusted_index & 1 else self.tags[1]
            value = element.value
            # OpCounter.record_hash inlined, as in HashFunction.digest.
            counter = self._hash.counter
            counter.hash_ops += 1
            counter.hash_bytes += len(tag) + len(value)
            labels = counter.labels
            labels["chain-verify"] = labels.get("chain-verify", 0) + 1
            if self._raw(tag + value) != trusted.value:
                return False
            if commit:
                if not trusted_index & 1:
                    self._derived[trusted_index] = trusted.value
                self.trusted = element
                self._derived.pop(trusted_index + self.resync_window, None)
            return True
        if gap <= 0 or gap > self.resync_window:
            return False
        raw = self._raw
        odd, even = self.tags
        value = element.value
        if gap == 2:
            # Every A1 of an unreliable exchange (no A2 consumes the even
            # ack element): two hashes with the tags bound once, the
            # walk's charge inline, one derived slot and the two prune
            # slots a gap-2 commit kills.
            first, second = (even, odd) if trusted_index & 1 else (odd, even)
            middle = raw(first + value)
            counter = self._hash.counter
            counter.hash_ops += 2
            counter.hash_bytes += 2 * len(odd) + len(value) + self._hash.digest_size
            labels = counter.labels
            labels["chain-verify"] = labels.get("chain-verify", 0) + 2
            if raw(second + middle) != trusted.value:
                return False
            if commit:
                derived = self._derived
                derived[trusted_index - 1] = middle
                if not trusted_index & 1:
                    derived[trusted_index] = trusted.value
                self.trusted = element
                horizon = element.index + self.resync_window
                derived.pop(horizon + 1, None)
                derived.pop(horizon + 2, None)
            return True
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

