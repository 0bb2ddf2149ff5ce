"""Every chain walk against the chain's definition.

PROTOCOL.md §14.1 builds a chain with a pairwise walk over the raw hash
callable, charged to the counter in one bulk record. This file checks
the walk against paper §3.2.1's definition, ``H_i = H(tag(i) | H_{i-1})``,
computed one counted ``digest`` call per element on a separate counter:

- every :class:`HashChain` buffer equals the reference elements, and
  the build's ``hash_ops``, ``hash_bytes`` and ``labels`` equal the
  reference's per-call tallies;
- every :class:`CheckpointedHashChain` element equals the reference,
  read in position order and consumed exchange by exchange, with the
  ``chain-create`` and ``chain-recompute`` tallies of per-call
  segment rebuilds;
- building a long chain keeps its peak memory near the buffer it
  returns plus one working copy.
"""

from __future__ import annotations

import functools
import tracemalloc

import pytest

from repro.core.hashchain import (
    ACKNOWLEDGMENT_TAGS,
    SIGNATURE_TAGS,
    CheckpointedHashChain,
    HashChain,
)
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import OpCounter, available_hashes, get_hash

HASHES = [*available_hashes(), "sha1-8", "sha1-16"]
TAGS = {"sig": SIGNATURE_TAGS, "ack": ACKNOWLEDGMENT_TAGS}
SEED_SIZES = (1, 20, 33)
INTERVALS = (2, 3, 16, 64)
#: The pure-Python hashes cost 0.1-0.5 ms a digest (2-vCPU VM), so they
#: walk short chains only.
SLOW_HASHES = {"mmo", "sha1p"}
LENGTHS = (2, 4, 6, 64, 2048)

CASES = [
    pytest.param(name, tags, size, id=f"{name}-{tags}-seed{size}")
    for name in HASHES
    for tags in TAGS
    for size in SEED_SIZES
]


def tallies(counter: OpCounter) -> tuple[int, int, dict]:
    return counter.hash_ops, counter.hash_bytes, dict(counter.labels)


def seed_of(size: int) -> bytes:
    return DRBG(b"chain-walk").random_bytes(size)


@functools.lru_cache(maxsize=None)
def reference(name: str, tags: str, size: int, length: int):
    """Positions ``0..length`` from one counted digest per element, and
    the tallies of that build."""
    odd, even = TAGS[tags]
    hash_fn = get_hash(name, OpCounter())
    elements = [seed_of(size)]
    for index in range(1, length + 1):
        tag = odd if index % 2 else even
        elements.append(hash_fn.digest(tag + elements[-1], label="chain-create"))
    return tuple(elements), tallies(hash_fn.counter)


def recompute_tallies(name, tags, elements, interval, indices):
    """Per-call tallies of the segment rebuilds that reading ``indices``
    in turn costs a checkpointed chain: a position that is neither a
    checkpoint nor in the cached segment rebuilds its whole segment."""
    odd, even = TAGS[tags]
    length = len(elements) - 1
    hash_fn = get_hash(name, OpCounter())
    cached = None
    for index in indices:
        base = index - index % interval
        if index % interval == 0 or index == length or base == cached:
            continue
        cached = base
        value = elements[base]
        for position in range(base + 1, min(base + interval, length) + 1):
            tag = odd if position % 2 else even
            value = hash_fn.digest(tag + value, label="chain-recompute")
    return tallies(hash_fn.counter)


@pytest.mark.parametrize("name, tags, size", CASES)
def test_chain_buffer_matches_definition(name, tags, size):
    for length in LENGTHS[:3] if name in SLOW_HASHES else LENGTHS:
        elements, expected = reference(name, tags, size, length)
        hash_fn = get_hash(name, OpCounter())
        chain = HashChain(hash_fn, seed_of(size), length, TAGS[tags])
        assert type(chain._buf) is bytes
        assert chain._buf == b"".join(elements[1:]), length
        assert [chain.value_at(i) for i in range(length + 1)] == list(elements)
        assert tallies(hash_fn.counter) == expected, length


@pytest.mark.parametrize("interval", INTERVALS)
@pytest.mark.parametrize("name, tags, size", CASES)
def test_checkpointed_chain_matches_definition(name, tags, size, interval):
    for length in LENGTHS[:3] if name in SLOW_HASHES else LENGTHS:
        elements, built = reference(name, tags, size, length)
        hash_fn = get_hash(name, OpCounter())
        chain = CheckpointedHashChain(
            hash_fn, seed_of(size), length, TAGS[tags], interval
        )
        assert tallies(hash_fn.counter) == built, length
        assert chain.anchor.value == elements[-1]

        # Every position in order.
        hash_fn.counter.reset()
        indices = range(length + 1)
        assert [chain.element(i).value for i in indices] == list(elements)
        assert tallies(hash_fn.counter) == recompute_tallies(
            name, tags, elements, interval, indices
        ), length

        # Consumed the way a signer consumes it, from the anchor down.
        chain = CheckpointedHashChain(
            hash_fn, seed_of(size), length, TAGS[tags], interval
        )
        hash_fn.counter.reset()
        while chain.remaining_exchanges:
            s1, key = chain.next_exchange()
            assert s1.value == elements[s1.index]
            assert key.value == elements[key.index]
        assert tallies(hash_fn.counter) == recompute_tallies(
            name, tags, elements, interval, range(length - 1, -1, -1)
        ), length


def test_build_peak_memory_stays_near_two_buffers():
    # The returned buffer plus one growing working copy: about 2.1 n·h.
    # A list of per-element digests joined at the end peaks near 8 n·h,
    # and the benchmark's set-up builds run inside its measured process.
    length, width = 32768, 20
    sha1 = get_hash("sha1", OpCounter())
    tracemalloc.start()
    try:
        chain = HashChain(sha1, seed_of(20), length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chain._buf) == length * width
    assert peak <= 2.5 * length * width, peak / (length * width)
