"""Chunked stream transfer with adaptive mode selection.

ALPHA's three modes trade latency, buffer space, and per-packet
overhead (paper Sections 3.3, 4). :class:`AdaptivePolicy` implements
the selection rule the paper's "adaptive" story implies: infrequent
signaling rides the base protocol, moderate backlogs use ALPHA-C, and
bulk backlogs use ALPHA-M with a tree sized to the backlog.

:class:`StreamingSource`/:class:`StreamingSink` chunk and reassemble a
byte stream over an endpoint, tagging chunks with offsets so loss and
reordering are measurable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.modes import Mode, ReliabilityMode
from repro.core.signer import ChannelConfig
from repro.core.wire import Reader, Writer
from repro.transports.netsim import EndpointAdapter


@dataclass(frozen=True)
class AdaptivePolicy:
    """Queue-depth-driven mode selection.

    ``<= base_threshold`` queued messages → base mode;
    ``<= merkle_threshold`` → ALPHA-C; above → ALPHA-M. Batch size is
    the backlog clamped to ``max_batch``.
    """

    base_threshold: int = 1
    merkle_threshold: int = 16
    max_batch: int = 64
    reliability: ReliabilityMode = ReliabilityMode.UNRELIABLE

    def choose(self, queue_depth: int) -> ChannelConfig:
        if queue_depth <= self.base_threshold:
            mode, batch = Mode.BASE, 1
        elif queue_depth <= self.merkle_threshold:
            mode, batch = Mode.CUMULATIVE, min(queue_depth, self.max_batch)
        else:
            mode, batch = Mode.MERKLE, min(queue_depth, self.max_batch)
        return ChannelConfig(
            mode=mode, reliability=self.reliability, batch_size=max(batch, 1)
        )


class StreamingSource:
    """Chunks a byte stream into offset-tagged protected messages."""

    def __init__(
        self,
        adapter: EndpointAdapter,
        peer: str,
        chunk_size: int = 1024,
        policy: AdaptivePolicy | None = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError("chunk size must be positive")
        self.adapter = adapter
        self.peer = peer
        self.chunk_size = chunk_size
        self.policy = policy
        self.bytes_submitted = 0
        self.chunks_submitted = 0

    def submit(self, data: bytes) -> int:
        """Queue ``data`` as protected chunks; returns the chunk count."""
        offset = self.bytes_submitted
        count = 0
        for start in range(0, len(data), self.chunk_size):
            chunk = data[start : start + self.chunk_size]
            writer = Writer()
            writer.u64(offset + start)
            writer.var_bytes(chunk)
            self.adapter.send(self.peer, writer.getvalue())
            count += 1
        self.bytes_submitted += len(data)
        self.chunks_submitted += count
        self._adapt()
        return count

    def _adapt(self) -> None:
        if self.policy is None:
            return
        signer = self.adapter.endpoint.association(self.peer).signer
        if signer is None:
            return
        signer.reconfigure(self.policy.choose(signer.queue_depth))


class StreamingSink:
    """Reassembles chunks delivered by an endpoint adapter."""

    def __init__(self, adapter: EndpointAdapter, peer: str) -> None:
        self.adapter = adapter
        self.peer = peer
        self.chunks: dict[int, bytes] = {}
        self.decode_errors = 0

    def pump(self) -> None:
        """Pull newly delivered messages out of the adapter."""
        remaining = []
        for src, raw in self.adapter.received:
            if src != self.peer:
                remaining.append((src, raw))
                continue
            try:
                reader = Reader(raw)
                offset = reader.u64()
                chunk = reader.var_bytes()
                reader.expect_end()
            except Exception:
                self.decode_errors += 1
                continue
            self.chunks[offset] = chunk
        self.adapter.received = remaining

    @property
    def bytes_received(self) -> int:
        return sum(len(c) for c in self.chunks.values())

    def contiguous_prefix(self) -> bytes:
        """The longest gap-free byte prefix received so far."""
        out = bytearray()
        offset = 0
        while offset in self.chunks:
            chunk = self.chunks[offset]
            out.extend(chunk)
            offset += len(chunk)
        return bytes(out)

    def missing_ranges(self, total_length: int) -> list[tuple[int, int]]:
        """Byte ranges not yet received, for retransmission decisions."""
        covered = sorted(self.chunks.items())
        missing = []
        cursor = 0
        for offset, chunk in covered:
            if offset > cursor:
                missing.append((cursor, offset))
            cursor = max(cursor, offset + len(chunk))
        if cursor < total_length:
            missing.append((cursor, total_length))
        return missing
