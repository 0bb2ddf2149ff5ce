"""Structured exchange tracing: typed lifecycle events with sim time.

Every protocol engine emits :class:`TraceEvent` records into a shared
:class:`ExchangeTracer` when observability is enabled. Events carry the
*simulated* timestamp (the ``now`` the engine was driven with), the name
of the emitting node, the event kind, and enough identity (association,
exchange sequence number, message index) to reconstruct one exchange's
full story across signer, relays, and verifier — which is exactly what
the conformance suite asserts against.
"""

from __future__ import annotations

import enum


class EventKind(enum.Enum):
    """Lifecycle event vocabulary (PROTOCOL.md §9 documents each)."""

    # Bootstrapping
    HS_SEND = "hs-send"
    HS_RECV = "hs-recv"
    ESTABLISHED = "established"
    # The S1/A1/S2(/A2) interlock, send/recv per packet class
    S1_SEND = "s1-send"
    S1_RECV = "s1-recv"
    S1_VERIFY_OK = "s1-verify-ok"
    S1_VERIFY_FAIL = "s1-verify-fail"
    S1_REFUSED = "s1-refused"
    A1_SEND = "a1-send"
    A1_RECV = "a1-recv"
    A1_VERIFY_OK = "a1-verify-ok"
    A1_VERIFY_FAIL = "a1-verify-fail"
    S2_SEND = "s2-send"
    S2_RECV = "s2-recv"
    S2_VERIFY_OK = "s2-verify-ok"
    S2_VERIFY_FAIL = "s2-verify-fail"
    A2_SEND = "a2-send"
    A2_RECV = "a2-recv"
    A2_VERIFY_OK = "a2-verify-ok"
    A2_VERIFY_FAIL = "a2-verify-fail"
    DELIVER = "deliver"
    # Reliability machinery
    RETRANSMIT = "retransmit"
    RTO_UPDATE = "rto-update"
    BACKOFF = "backoff"
    # Storm-proofing (PROTOCOL.md §12): nack damper + RTO escape hatch
    NACK_SUPPRESSED = "nack-suppressed"
    RTO_PROBE = "rto-probe"
    PROBE_RECOVERY = "probe-recovery"
    EXCHANGE_DONE = "exchange-done"
    EXCHANGE_FAILED = "exchange-failed"
    DEAD_PEER = "dead-peer"
    REKEY = "rekey"
    # Relay buffer lifecycle
    RELAY_ADMIT = "relay-admit"
    RELAY_FORWARD = "relay-forward"
    RELAY_DROP = "relay-drop"
    RELAY_EVICT = "relay-evict"
    RELAY_TOMBSTONE = "relay-tombstone"
    # Relay churn survival (PROTOCOL.md §13): crash-safe restarts and
    # mid-association path failover
    RELAY_RESTORED = "relay-restored"
    RELAY_REANCHOR = "relay-reanchor"
    RELAY_PASSTHROUGH = "relay-passthrough"
    FAILOVER = "failover"
    FAILOVER_EXHAUSTED = "failover-exhausted"
    # Adaptation (PROTOCOL.md §10): controller decisions
    ADAPT_SWITCH = "adapt-switch"
    ADAPT_TUNE = "adapt-tune"
    # Wire-level pathology
    PARSE_DROP = "parse-drop"
    LINK_LOSS = "link-loss"
    LINK_CORRUPT = "link-corrupt"
    LINK_DUP = "link-dup"
    # Real-socket transport
    UDP_TX = "udp-tx"
    UDP_RX = "udp-rx"


class TraceEvent:
    """One record: (simulated time, node, kind, identity, free detail)."""

    __slots__ = ("t", "node", "kind", "assoc_id", "seq", "msg_index", "info")

    def __init__(
        self,
        t: float,
        node: str,
        kind: EventKind,
        assoc_id: int = 0,
        seq: int = 0,
        msg_index: int = -1,
        info: str = "",
    ) -> None:
        self.t = t
        self.node = node
        self.kind = kind
        self.assoc_id = assoc_id
        self.seq = seq
        self.msg_index = msg_index
        self.info = info

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f" m{self.msg_index}" if self.msg_index >= 0 else ""
        return (
            f"TraceEvent({self.t:.4f} {self.node} {self.kind.value}"
            f" seq={self.seq}{extra} {self.info!r})"
        )


#: Kinds that mark an exchange's story as finished; once every endpoint
#: has said one of these, its events are eligible for eviction.
_TERMINAL_KINDS = frozenset({EventKind.EXCHANGE_DONE, EventKind.EXCHANGE_FAILED})


class ExchangeTracer:
    """Bounded in-memory sink for :class:`TraceEvent` records.

    Two bounds keep a long-running tracer from growing without limit:

    * ``max_events`` hard-caps the buffer — past it new events are
      *dropped* (counted in :attr:`dropped`);
    * ``max_completed_exchanges`` caps how many *finished* exchanges are
      retained — past it the oldest completed exchange's events are
      *evicted* oldest-first (counted in :attr:`evicted_exchanges`,
      exported as ``obs.trace.evicted``), so the buffer keeps the recent
      and the still-in-flight stories instead of filling up with
      ancient completed ones. Events with ``seq == 0`` (handshakes,
      controller decisions, parse drops) are exempt: only seq-scoped
      exchange events are evicted.
    """

    def __init__(
        self,
        max_events: int = 100_000,
        max_completed_exchanges: int = 256,
    ) -> None:
        if max_completed_exchanges < 1:
            raise ValueError("max_completed_exchanges must be positive")
        self.max_events = max_events
        self.max_completed_exchanges = max_completed_exchanges
        self.events: list[TraceEvent] = []
        #: Events discarded once the buffer filled (never silent: the
        #: count says exactly how much of the story is missing).
        self.dropped = 0
        #: Completed exchanges whose events were evicted to stay under
        #: ``max_completed_exchanges``.
        self.evicted_exchanges = 0
        #: ``(assoc_id, seq)`` of completed exchanges still in the
        #: buffer, in completion order (Python dicts preserve insertion
        #: order — this is the eviction queue).
        self._completed: dict[tuple[int, int], None] = {}

    def emit(
        self,
        t: float,
        node: str,
        kind: EventKind,
        assoc_id: int = 0,
        seq: int = 0,
        msg_index: int = -1,
        info: str = "",
    ) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(
            TraceEvent(t, node, kind, assoc_id, seq, msg_index, info)
        )
        if kind in _TERMINAL_KINDS and seq != 0:
            self._completed[(assoc_id, seq)] = None
            if len(self._completed) > self.max_completed_exchanges:
                self._evict_oldest_completed()

    def _evict_oldest_completed(self) -> None:
        """Drop the oldest completed exchange's events from the buffer."""
        key = next(iter(self._completed))
        del self._completed[key]
        assoc_id, seq = key
        self.events = [
            event
            for event in self.events
            if event.seq != seq or event.assoc_id != assoc_id
        ]
        self.evicted_exchanges += 1

    # -- query helpers (what the conformance suite asserts against) -----------

    def sequence(self, kinds: set[EventKind] | None = None) -> list[tuple[str, EventKind]]:
        """``(node, kind)`` pairs in emission order, optionally filtered."""
        return [
            (event.node, event.kind)
            for event in self.events
            if kinds is None or event.kind in kinds
        ]

    def count(self, kind: EventKind, node: str | None = None) -> int:
        return sum(
            1
            for event in self.events
            if event.kind is kind and (node is None or event.node == node)
        )

    def for_exchange(self, seq: int, assoc_id: int | None = None) -> list[TraceEvent]:
        return [
            event
            for event in self.events
            if event.seq == seq
            and (assoc_id is None or event.assoc_id == assoc_id)
        ]

    def clear(self) -> None:
        self.events = []
        self.dropped = 0
        self.evicted_exchanges = 0
        self._completed = {}
