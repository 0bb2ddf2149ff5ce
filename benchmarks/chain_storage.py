"""A checkpointed signer chain: the memory side of the chain-storage
ablation (``bench_ablations.test_ablation_chain_storage``).

No protocol role uses it; it lives beside the benchmark that measures
it. :func:`repro.core.hashchain._walk` builds its elements, so they and
their tallies are those of :class:`~repro.core.hashchain.HashChain`
(``tests/core/test_chain_walk.py``).
"""

from __future__ import annotations

from repro.core.exceptions import ChainExhaustedError
from repro.core.hashchain import SIGNATURE_TAGS, ChainElement, _walk
from repro.crypto.hashes import HashFunction


class CheckpointedHashChain:
    """Owner-side chain with O(n/k + k) memory.

    A plain ``HashChain`` stores all ``n`` elements — fine on a
    workstation, heavy on a sensor node (a 2048-element SHA-1 chain is
    40 KiB, five times the AquisGrain's RAM). This variant keeps only
    every ``k``-th element and rebuilds the active segment on demand:
    worst-case ``k`` extra hashes per access, amortized far less because
    ALPHA walks the chain strictly downward.

    The interface mirrors :class:`~repro.core.hashchain.HashChain`, so
    signer sessions accept either (duck-typed). The build walks one
    interval at a time and a rebuild walks one segment, both with
    :func:`_walk`: one bulk charge per walk, with the per-call tallies. Recomputation is charged under
    the label ``"chain-recompute"`` so benchmarks can separate it from
    protocol work.
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
        # Build once, one walk per interval, keeping checkpoints at
        # positions 0, k, 2k, ... and the anchor.
        self._checkpoints: dict[int, bytes] = {0: seed}
        value = seed
        for base in range(0, length, checkpoint_interval):
            count = min(checkpoint_interval, length - base)
            walked = _walk(hash_fn, value, base, count, tags, "chain-create")
            value = walked[-hash_fn.digest_size :]
            self._checkpoints[base + count] = value
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
        top = min(base + self.checkpoint_interval, self.length)
        walked = _walk(
            self._hash, value, base, top - base, self.tags, "chain-recompute"
        )
        h = self._hash.digest_size
        self._segment = [value] + [walked[i : i + h] for i in range(0, len(walked), h)]
        self._segment_base = base
        # Checkpoints above the cursor will never be needed again. They
        # were inserted in position order, so the dead ones are the last.
        horizon = self._cursor + self.checkpoint_interval
        while next(reversed(self._checkpoints)) > horizon:
            self._checkpoints.popitem()

    def next_exchange(self) -> tuple[ChainElement, ChainElement]:
        if self._cursor < 2:
            raise ChainExhaustedError(
                f"chain exhausted after {self.length // 2} exchanges"
            )
        s1 = self.element(self._cursor - 1)
        key = self.element(self._cursor - 2)
        self._cursor -= 2
        return s1, key
