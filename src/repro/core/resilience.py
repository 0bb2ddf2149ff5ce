"""Resilience primitives: RTT estimation, failure outcomes, counters.

ALPHA's interlock makes every exchange a request/response pair, so the
classic TCP machinery applies directly: an RFC 6298 SRTT/RTTVAR
estimator turns measured round trips into a retransmission timeout,
exponential backoff with jitter spreads retries under congestion or
burst loss, and a retry cap converts "the peer is gone" from an
infinite retransmission loop into a terminal, observable outcome.

The pieces here are deliberately engine-agnostic: the signer session
owns one :class:`RttEstimator` per association, signers, verifiers,
endpoints and transports each own a :class:`ResilienceStats` block, and
:class:`ExchangeFailed` is the terminal event surfaced through
``EndpointOutput`` when retries are exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

#: Lower clamp on every retransmission timeout (seconds).
RTO_FLOOR_S = 0.05


class RttEstimator:
    """RFC 6298-style retransmission-timeout estimator.

    ``observe`` feeds a round-trip sample (callers must apply Karn's
    algorithm: never sample an exchange that was retransmitted);
    ``backoff`` doubles the timeout after a loss. The RTO is clamped to
    ``[min_rto_s, max_rto_s]`` and, until the first sample arrives,
    equals ``initial_rto_s``.
    """

    ALPHA = 1 / 8  # SRTT gain (RFC 6298 §2.3)
    BETA = 1 / 4  # RTTVAR gain
    K = 4  # variance multiplier

    def __init__(
        self,
        initial_rto_s: float = 0.25,
        min_rto_s: float = RTO_FLOOR_S,
        max_rto_s: float = 10.0,
    ) -> None:
        if initial_rto_s <= 0 or min_rto_s <= 0 or max_rto_s <= 0:
            raise ValueError("timeouts must be positive")
        if min_rto_s > max_rto_s:
            raise ValueError("min_rto_s must not exceed max_rto_s")
        self.min_rto_s = min_rto_s
        self.max_rto_s = max_rto_s
        self.srtt: float | None = None
        self.rttvar: float = 0.0
        self.samples = 0
        self._rto = self._clamp(initial_rto_s)
        self._backed_off = self._rto

    def _clamp(self, value: float) -> float:
        return min(max(value, self.min_rto_s), self.max_rto_s)

    @property
    def rto(self) -> float:
        """The current retransmission timeout (with any active backoff)."""
        return self._backed_off

    def observe(self, rtt_s: float) -> None:
        """Feed one clean round-trip sample; resets any backoff."""
        if rtt_s < 0:
            raise ValueError("RTT samples must be non-negative")
        if self.srtt is None:
            self.srtt = rtt_s
            self.rttvar = rtt_s / 2
        else:
            self.rttvar = (1 - self.BETA) * self.rttvar + self.BETA * abs(
                self.srtt - rtt_s
            )
            self.srtt = (1 - self.ALPHA) * self.srtt + self.ALPHA * rtt_s
        self.samples += 1
        self._rto = self._clamp(self.srtt + self.K * self.rttvar)
        self._backed_off = self._rto

    def backoff(self, factor: float = 2.0) -> float:
        """Multiply the timeout after a retransmission; returns the new RTO."""
        self._backed_off = self._clamp(self._backed_off * factor)
        return self._backed_off

    def clear_backoff(self, sample_s: float | None = None) -> None:
        """Collapse any backoff to the estimated RTO.

        RFC 6298 §5.7: once the peer acknowledges new data the
        connection is alive again, so the multiplied timeout reverts to
        the estimate. Without this, Karn's algorithm (which discards
        retransmitted samples) would pin the RTO at its maximum under
        sustained loss even though exchanges keep completing.

        ``sample_s`` carries a fresh round-trip measurement (e.g. from
        an escape-hatch probe). While the estimator sits pinned at
        ``max_rto_s`` the stale SRTT no longer describes the link, so
        the sample *reseeds* the estimator as if it were the first;
        otherwise it folds in as a normal observation. Either way the
        backoff collapses.
        """
        if sample_s is not None:
            if sample_s < 0:
                raise ValueError("RTT samples must be non-negative")
            if self.srtt is None or self._backed_off >= self.max_rto_s:
                self.srtt = sample_s
                self.rttvar = sample_s / 2
                self.samples += 1
                self._rto = self._clamp(self.srtt + self.K * self.rttvar)
                self._backed_off = self._rto
            else:
                self.observe(sample_s)
            return
        self._backed_off = self._rto


@dataclass
class ExchangeFailed:
    """Terminal outcome of an exchange (or handshake) that gave up.

    Surfaced through ``EndpointOutput.failures`` so applications can
    react (requeue elsewhere, alert, drop) instead of the signer
    retrying forever against a dead peer.
    """

    peer: str
    assoc_id: int
    seq: int
    retries: int
    reason: str
    #: The undelivered payloads (acked messages are excluded).
    messages: list[bytes] = field(default_factory=list)


@dataclass
class ResilienceStats:
    """Counter block of the signer, endpoint and transport roles.

    Every counter is monotonic; ``merge`` folds another block in (used
    to aggregate per-session counters up to the endpoint's
    ``resilience_stats()``). A relay books its counts in
    ``RelayEngine.stats`` instead.
    """

    #: Protocol packets put on the wire (S1/S2 and their resends). The
    #: denominator for the adaptive controller's retransmit-ratio loss
    #: estimate.
    packets_sent: int = 0
    #: Packets sent again after a timeout or nack.
    retransmits: int = 0
    #: Retransmit events provoked by a deadline expiring — nothing came
    #: back, the congestion-flavoured half of the loss signal.
    retransmits_timeout: int = 0
    #: Retransmit events provoked by an explicit A2 nack — the peer
    #: received damaged bytes, the corruption-flavoured half (the
    #: provenance the link-health classifier splits on, PROTOCOL.md §11).
    retransmits_nack: int = 0
    #: Nack-provoked retransmit events the storm damper suppressed
    #: (token bucket empty / suppression window open).
    nack_suppressed: int = 0
    #: Times an RTO was multiplied (one per timeout-triggered resend).
    backoff_events: int = 0
    #: Escape-hatch probes (bare S1 resends) sent after consecutive
    #: timeouts pinned at ``max_rto_s``.
    escape_probes: int = 0
    #: Probes answered by a repeated A1, collapsing the pinned backoff.
    probe_recoveries: int = 0
    #: Clean RTT samples fed to the estimator.
    rtt_samples: int = 0
    #: Exchanges that finished: every message acked (reliable) or its
    #: S2s sent (unreliable).
    exchanges_completed: int = 0
    #: Exchanges/handshakes that hit their retry cap.
    exchanges_failed: int = 0
    #: Peers declared dead after consecutive failures.
    dead_peers: int = 0
    #: Packets dropped because they failed to parse (truncated/corrupt).
    corrupt_drops: int = 0
    #: Datagrams whose processing raised out of the wire parser.
    malformed_drops: int = 0
    #: Datagrams dropped because the source address is not in the peer
    #: directory (mid-association locator updates / NAT rebinds land
    #: here until the directory is refreshed — observable, not silent).
    unknown_source_drops: int = 0
    #: Outbound packets dropped because the peer has no registered
    #: address (transport-level black hole; each drop also surfaces a
    #: failure record).
    unroutable_drops: int = 0
    #: Mid-association path failovers: the endpoint classified a hop
    #: dead and switched the association to a ranked backup path.
    failovers: int = 0
    #: Failover attempts that found no usable backup path (budget spent
    #: or no alternates registered) and fell back to terminal handling.
    failovers_exhausted: int = 0
    #: In-flight exchanges re-presented (cached S1 resent) through a
    #: freshly promoted path so unconsumed chain elements are not burned.
    s1_representations: int = 0

    def merge(self, other: "ResilienceStats") -> "ResilienceStats":
        """Fold ``other`` into this block, mutating it.

        Only safe when the target is a dedicated accumulator and each
        source block is folded in exactly once (e.g. absorbing a retired
        session's counters). For repeatable snapshots over live blocks
        use :meth:`aggregate`, which never touches its inputs.
        """
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @classmethod
    def aggregate(cls, *blocks: "ResilienceStats") -> "ResilienceStats":
        """Sum ``blocks`` into a fresh instance, leaving them untouched.

        This is the idempotent counterpart to :meth:`merge`: calling it
        twice over the same live blocks yields identical totals, so
        snapshot paths cannot double-count.
        """
        total = cls()
        for block in blocks:
            total.merge(block)
        return total


@dataclass
class PathCandidate:
    """One ranked relay path toward a peer.

    ``hops`` names the relays in order (endpoint-exclusive); it is
    opaque to the protocol layer — the routing/transport callback
    interprets it when a switch happens.
    """

    path_id: str
    hops: tuple[str, ...] = ()
    #: Times this path was demoted by a failover (its hop was classified
    #: dead while the path was active). Ranks re-promotion: a healed
    #: primary is retried before a twice-failed backup.
    failures: int = 0
    #: Times this path was promoted to active.
    switches: int = 0


class PathManager:
    """Ranked alternate relay paths per peer (PROTOCOL.md §13).

    ALPHA pins one hash-chain association to one relay path, so a dead
    hop strands the association unless the endpoint can move it. The
    manager holds the candidate set, tracks which path is active, and on
    :meth:`fail_over` demotes the active path and promotes the best
    alternate (fewest failures, then registration order). A bounded
    per-peer failover budget keeps a flapping mesh from ping-ponging
    forever; once spent, failover reports exhaustion and terminal
    handling (dead-peer) takes over.
    """

    def __init__(self, max_failovers: int = 8) -> None:
        if max_failovers < 1:
            raise ValueError("need at least one failover in the budget")
        self.max_failovers = max_failovers
        self._paths: dict[str, list[PathCandidate]] = {}
        self._active: dict[str, int] = {}
        self._spent: dict[str, int] = {}

    def register(
        self, peer: str, path_id: str, hops: tuple[str, ...] = ()
    ) -> PathCandidate:
        """Add a candidate path; the first registered becomes active."""
        candidates = self._paths.setdefault(peer, [])
        if any(c.path_id == path_id for c in candidates):
            raise ValueError(f"duplicate path {path_id!r} for {peer!r}")
        candidate = PathCandidate(path_id=path_id, hops=tuple(hops))
        candidates.append(candidate)
        if peer not in self._active:
            self._active[peer] = 0
            candidate.switches += 1
        return candidate

    def candidates(self, peer: str) -> list[PathCandidate]:
        return list(self._paths.get(peer, []))

    def active(self, peer: str) -> PathCandidate | None:
        """The path the association currently rides, if any."""
        candidates = self._paths.get(peer)
        if not candidates:
            return None
        return candidates[self._active[peer]]

    def failover_count(self, peer: str) -> int:
        return self._spent.get(peer, 0)

    def note_success(self, peer: str) -> None:
        """An exchange completed: clear the active path's failure mark."""
        active = self.active(peer)
        if active is not None:
            active.failures = 0

    def fail_over(self, peer: str) -> PathCandidate | None:
        """Demote the active path and promote the best alternate.

        Returns the newly active candidate, or ``None`` when no
        alternate exists or the per-peer budget is spent (the caller
        should then fall back to dead-peer handling).
        """
        candidates = self._paths.get(peer)
        if not candidates or len(candidates) < 2:
            return None
        if self._spent.get(peer, 0) >= self.max_failovers:
            return None
        current = self._active[peer]
        candidates[current].failures += 1
        best = min(
            (i for i in range(len(candidates)) if i != current),
            key=lambda i: (candidates[i].failures, i),
        )
        self._active[peer] = best
        self._spent[peer] = self._spent.get(peer, 0) + 1
        promoted = candidates[best]
        promoted.switches += 1
        return promoted
