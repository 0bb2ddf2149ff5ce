"""Discriminating attacks: selective tag corruption and relay reordering.

Both attackers are deterministic (seeded DRBGs) like the rest of
:mod:`repro.attacks`, and both are *scheme-agnostic*: they operate on
frame payload bytes at a forwarding node, parameterised by a region
function (where to flip) or a window (how much to permute). The schemes
they separate, and the tests that pin the separations, live in
``benchmarks/bench_attack_filtering.py`` and ``tests/security/``:

- :class:`SelectiveTagCorruptor` flips bits only inside the
  *aggregated-tag* region of a packet. Against ProMAC the leading
  fragment stays intact, so the carrying packet is still provisionally
  accepted while the corrupted back-fragments retract earlier genuine
  messages (accept-then-retract). Against ALPHA any flip in the
  disclosed-element region kills the packet at the first honest relay.
- :class:`RelayReorderer` holds a relay's forwarding queue and releases
  it in a DRBG-permuted order. CSM's generation-scoped verification and
  ProMAC's seq-addressed fragments tolerate this; Guy Fawkes'
  strict-order chain desynchronises permanently; ALPHA recovers through
  retransmission.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.crypto.drbg import DRBG
from repro.netsim.node import Node
from repro.netsim.packet import Frame

#: A region function maps a payload to the byte spans an attacker
#: targets; an empty list means "leave this frame alone".
RegionFn = Callable[[bytes], Sequence[tuple[int, int]]]


def whole_payload(payload: bytes) -> list[tuple[int, int]]:
    """Region function for indiscriminate corruption (the baseline)."""
    return [(0, len(payload))] if payload else []


def alpha_s2_tag_region(payload: bytes) -> list[tuple[int, int]]:
    """The disclosed-chain-element span of an ALPHA S2 packet.

    This is ALPHA's closest analogue to an "aggregated tag": the key
    disclosure every buffered pre-signature of the exchange verifies
    against. Non-S2 packets yield no region (the corruptor skips them).
    """
    from repro.core.exceptions import PacketError
    from repro.core.packets import _HEADER, PacketType, peek_type

    try:
        if peek_type(payload) is not PacketType.S2:
            return []
    except PacketError:
        return []
    start = _HEADER.size + 4  # past the disclosed_index u32
    end = min(start + 20, len(payload))
    return [(start, end)] if end > start else []


class SelectiveTagCorruptor:
    """On-path attacker flipping bits only inside chosen byte regions.

    Wraps (and preserves) the node's existing forward filter, like
    :class:`~repro.attacks.adversary.TamperingRelay` — the corruption
    happens *before* any inner engine judges the frame, modelling
    damage on the upstream link of the first honest relay.
    """

    def __init__(
        self,
        node: Node,
        regions: RegionFn,
        kind: str | None = "alpha",
        rng: DRBG | None = None,
        flips_per_frame: int = 1,
        max_frames: int | None = None,
    ) -> None:
        if flips_per_frame < 1:
            raise ValueError("need at least one flip per frame")
        if max_frames is not None and max_frames < 1:
            raise ValueError("max_frames must be positive (or None)")
        self.node = node
        self.regions = regions
        self.kind = kind
        self.rng = rng if rng is not None else DRBG(f"tag-corruptor:{node.name}")
        self.flips_per_frame = flips_per_frame
        #: Stop corrupting after this many frames (None = never stop),
        #: so an attack can hit a bounded prefix of a stream and the
        #: grid can observe both damaged and clean traffic in one run.
        self.max_frames = max_frames
        self.active = True
        self.corrupted = 0
        self.skipped = 0
        self._inner = node.forward_filter
        node.forward_filter = self._corrupt

    def _corrupt(self, frame: Frame) -> bool:
        if self.active and (self.kind is None or frame.kind == self.kind):
            spans = [
                (start, end)
                for start, end in self.regions(frame.payload)
                if end > start
            ]
            if spans:
                mutated = bytearray(frame.payload)
                for _ in range(self.flips_per_frame):
                    start, end = spans[self.rng.random_below(len(spans))]
                    offset = start + self.rng.random_below(end - start)
                    mutated[offset] ^= 1 << self.rng.random_below(8)
                frame.payload = bytes(mutated)
                self.corrupted += 1
                if self.max_frames is not None and self.corrupted >= self.max_frames:
                    self.active = False
            else:
                self.skipped += 1
        if self._inner is not None:
            return self._inner(frame)
        return True


class RelayReorderer:
    """Compromised relay that permutes its forwarding queue.

    Frames of the targeted kind are captured instead of forwarded; once
    ``window`` of them are held (or :meth:`flush` is called), they are
    re-released in a DRBG-permuted order — passing through whatever
    inner forward filter the node already had (an honest engine on the
    same node still judges each frame), then transmitted along the
    node's route. Frames without a route are dropped, mirroring
    :meth:`Node.send`.
    """

    def __init__(
        self,
        node: Node,
        window: int = 4,
        kind: str | None = "alpha",
        rng: DRBG | None = None,
    ) -> None:
        if window < 2:
            raise ValueError("a reorder window below 2 permutes nothing")
        self.node = node
        self.window = window
        self.kind = kind
        self.rng = rng if rng is not None else DRBG(f"reorderer:{node.name}")
        self.active = True
        self.held: list[Frame] = []
        self.reordered = 0
        self.flushes = 0
        self._inner = node.forward_filter
        node.forward_filter = self._capture

    def _capture(self, frame: Frame) -> bool:
        if not self.active or (self.kind is not None and frame.kind != self.kind):
            if self._inner is not None:
                return self._inner(frame)
            return True
        self.held.append(frame.copy())
        if len(self.held) >= self.window:
            self.flush()
        return False  # the original is consumed; the permutation re-sends

    def _permutation(self, n: int) -> list[int]:
        order = list(range(n))
        for i in range(n - 1, 0, -1):  # Fisher–Yates on the DRBG
            j = self.rng.random_below(i + 1)
            order[i], order[j] = order[j], order[i]
        return order

    def flush(self) -> int:
        """Release everything held, permuted. Returns frames released."""
        batch, self.held = self.held, []
        if not batch:
            return 0
        order = self._permutation(len(batch))
        self.flushes += 1
        released = 0
        for position in order:
            frame = batch[position]
            if self._inner is not None and not self._inner(frame):
                continue  # an honest engine on this node dropped it
            link = self.node.routes.get(frame.destination)
            if link is None:
                continue
            frame.ttl -= 1
            if frame.ttl <= 0:
                continue
            link.transmit(frame, self.node)
            released += 1
        self.reordered += released
        return released

    def stop(self) -> int:
        """Deactivate and flush leftovers (end-of-run hygiene)."""
        self.active = False
        return self.flush()
