"""Per-link health ledgers and loss-cause classification.

ALPHA's adaptivity (paper §3.3, §3.3.3) needs two things the per-
association machinery cannot provide by itself:

1. **Memory across associations.** Chains are finite, so long-lived
   traffic re-keys onto fresh associations — and every fresh
   association used to restart its loss estimate (and therefore its
   mode) from zero, re-learning what the endpoint already knew about
   the link. A :class:`LinkHealth` ledger entry outlives associations:
   it aggregates retransmit provenance, SRTT/RTTVAR, delivery-latency
   histograms, and relay-drop counts per *peer*, and the
   :class:`~repro.core.adaptive.AdaptiveController` seeds a new
   association from it instead of from BASE.

2. **Loss *cause*, not just loss *rate*.** The retransmit ratio
   conflates congestion (the packet never arrived) with corruption
   (the packet arrived damaged). The paper's pre-ack machinery
   (§3.3.3) makes the difference observable: a verifier that receives
   a damaged S2 says so explicitly (a nack opened from the A1
   commitment), while a congestion-dropped packet produces only a
   timeout. :meth:`LinkHealth.loss_split` classifies from that
   provenance — see the classifier rules below.

Classifier rules (PROTOCOL.md §11):

- an explicit nack-triggered retransmit is **corruption** evidence —
  the peer held the damaged bytes in hand;
- a locally observed corrupt arrival (parse drop, bad MAC, damaged
  chain element) is **corruption** evidence for the reverse direction,
  and — because link corruption is symmetric while we can only see the
  inbound half — each one is assumed to mirror one outbound corruption
  that we experienced as a bare timeout;
- what remains of the timeout-triggered retransmits after that
  correction is **congestion**.

The ledger is protocol state, not just telemetry: its dominant cause
steers the signer's nack damper and probe escape, the adaptive
controller, and the endpoint's escape re-bootstrap. Every entry is
bounded: plain counters, two EWMAs, and one fixed-bucket histogram per
link, so a ledger over any number of associations stays a few hundred
bytes per peer.
"""

from __future__ import annotations

from repro.core.packets import LedgerSummary
from repro.obs.metrics import DEFAULT_BOUNDS, Histogram, MetricsRegistry

#: EWMA gain for the cross-association SRTT/RTTVAR mirror. Smoother
#: than RFC 6298's in-association gains: the ledger tracks the *link*,
#: not one exchange sequence.
_RTT_GAIN = 1 / 8
#: Loss events needed before :meth:`LinkHealth.loss_split` claims a
#: cause; below it the split is reported but flagged unconfident.
MIN_SPLIT_EVENTS = 4
#: Share of a confident split at which one cause counts as dominant.
DOMINANT_SHARE = 0.6
#: Half-life for aging a carried-over loss estimate before the
#: adaptive controller seeds a fresh association from it: a link
#: that recovered overnight should not seed its next association
#: pessimistically, so the stale estimate halves every interval since
#: the last controller update.
LOSS_DECAY_HALF_LIFE_S = 60.0


class LinkHealth:
    """Health ledger for one link (this endpoint ↔ one peer).

    Mutators are cheap (integer adds and EWMA folds) and callers guard
    them with ``if link is not None``, so an untracked endpoint pays
    nothing. The entry survives re-keying: sessions come and go, the
    ledger accumulates.
    """

    __slots__ = (
        "peer",
        "associations",
        "packets_sent",
        "retransmits_timeout",
        "retransmits_nack",
        "corrupt_arrivals",
        "deliveries",
        "rejects",
        "exchanges_completed",
        "exchanges_failed",
        "rtt_samples",
        "srtt",
        "rttvar",
        "loss_ewma",
        "loss_updates",
        "loss_updated_at",
        "latency",
        "peer_reports",
        "peer_corrupt_arrivals",
        "peer_verified",
        "peer_dropped",
        "peer_rtt_s",
        "peer_updated_at",
        "_registry",
    )

    def __init__(
        self, peer: str, registry: MetricsRegistry | None = None
    ) -> None:
        self.peer = peer
        self.associations = 0
        self.packets_sent = 0
        #: Retransmits provoked by a deadline expiring (nothing came
        #: back): the congestion-flavoured signal.
        self.retransmits_timeout = 0
        #: Retransmits provoked by an explicit A2 nack (the peer
        #: received damaged bytes): the corruption-flavoured signal.
        self.retransmits_nack = 0
        #: Inbound packets that arrived damaged (parse drops, bad MACs,
        #: broken chain elements) — corruption seen first-hand.
        self.corrupt_arrivals = 0
        #: Authenticated messages delivered from this peer (our verifier
        #: side); the ``verified`` tally the ledger summary carries.
        self.deliveries = 0
        #: Arrivals from this peer rejected for any reason (damaged,
        #: replayed, unknown exchange); the summary's ``dropped`` tally.
        self.rejects = 0
        self.exchanges_completed = 0
        self.exchanges_failed = 0
        self.rtt_samples = 0
        #: Cross-association smoothed RTT / RTT variance (seconds).
        self.srtt: float | None = None
        self.rttvar = 0.0
        #: Last known loss estimate, carried across associations. The
        #: adaptive controller pushes its per-tick EWMA here; a fresh
        #: association's controller seeds from it.
        self.loss_ewma = 0.0
        self.loss_updates = 0
        #: When the estimate was last refreshed (simulated/epoch time as
        #: supplied by the caller); ``None`` until the first timed update.
        self.loss_updated_at: float | None = None
        #: Exchange delivery latency (submit → all messages acked).
        self.latency = Histogram(f"link.{peer}.delivery_latency_s", DEFAULT_BOUNDS)
        #: The peer's wire-reported view of this link (PROTOCOL.md §16).
        #: Summaries are cumulative counters, so reports merge by
        #: elementwise max rather than accumulating.
        self.peer_reports = 0
        self.peer_corrupt_arrivals = 0
        self.peer_verified = 0
        self.peer_dropped = 0
        self.peer_rtt_s: float | None = None
        self.peer_updated_at: float | None = None
        self._registry = registry

    # -- mutators (called from the protocol engines) ---------------------------

    def on_association(self) -> None:
        self.associations += 1

    def on_packets_sent(self, count: int = 1) -> None:
        self.packets_sent += count

    def on_timeout_retransmit(self) -> None:
        self.retransmits_timeout += 1

    def on_nack_retransmit(self) -> None:
        self.retransmits_nack += 1

    def on_corrupt_arrival(self) -> None:
        self.corrupt_arrivals += 1

    def on_delivery(self) -> None:
        self.deliveries += 1

    def on_reject(self) -> None:
        self.rejects += 1

    def on_peer_summary(self, summary: LedgerSummary, now: float | None = None) -> None:
        """Merge the peer's wire-reported ledger digest.

        The counters are cumulative on the peer, but reports can arrive
        stale or out of order — a retransmitted A1 carries whatever the
        ledger said when that A1 was (re)built — so each counter merges
        monotonically: a report can advance the view, never regress it.
        RTT is a smoothed sample, not a counter; the latest non-zero
        report wins.

        The field is advisory and NOT integrity-protected, so a bit
        flip confined to it survives packet verification. Each counter
        is therefore clamped to ``packets_sent`` before merging: the
        peer cannot have received (let alone damaged, verified, or
        rejected) more of our packets than we ever transmitted, which
        bounds what corrupted-in-flight garbage can latch into the
        monotonic view.
        """
        self.peer_reports += 1
        cap = self.packets_sent
        self.peer_corrupt_arrivals = max(
            self.peer_corrupt_arrivals, min(summary.corrupt_arrivals, cap)
        )
        self.peer_verified = max(self.peer_verified, min(summary.verified, cap))
        self.peer_dropped = max(self.peer_dropped, min(summary.dropped, cap))
        if summary.rtt_us:
            self.peer_rtt_s = summary.rtt_us / 1e6
        if now is not None:
            self.peer_updated_at = now

    def summary(self) -> LedgerSummary:
        """Our side of the ledger as a wire digest for the peer."""
        rtt_us = 0
        if self.srtt is not None:
            rtt_us = int(self.srtt * 1e6)
        return LedgerSummary(
            corrupt_arrivals=self.corrupt_arrivals,
            verified=self.deliveries,
            dropped=self.rejects,
            rtt_us=rtt_us,
        )

    @property
    def has_history(self) -> bool:
        """True once this entry holds anything worth telling the peer."""
        return bool(
            self.loss_events
            or self.deliveries
            or self.rejects
            or self.rtt_samples
        )

    def on_rtt_sample(self, rtt_s: float) -> None:
        if self.srtt is None:
            self.srtt = rtt_s
            self.rttvar = rtt_s / 2
        else:
            self.rttvar += _RTT_GAIN * (abs(self.srtt - rtt_s) - self.rttvar)
            self.srtt += _RTT_GAIN * (rtt_s - self.srtt)
        self.rtt_samples += 1

    def on_exchange_done(self, now: float, latency_s: float) -> None:
        self.exchanges_completed += 1
        self.latency.observe(latency_s)
        self._publish(now)

    def on_exchange_failed(self, now: float) -> None:
        self.exchanges_failed += 1
        self._publish(now)

    def update_loss_estimate(self, estimate: float, now: float | None = None) -> None:
        """Adopt a controller's per-tick loss EWMA as the link's state.

        ``now`` timestamps the update so :meth:`loss_estimate` can age
        it later; omitting it keeps the raw, undecaying behaviour.
        """
        self.loss_ewma = estimate
        self.loss_updates += 1
        if now is not None:
            self.loss_updated_at = now

    def loss_estimate(
        self,
        now: float | None = None,
        half_life_s: float = LOSS_DECAY_HALF_LIFE_S,
    ) -> float:
        """The carried-over loss estimate, time-decayed to ``now``.

        Loss evidence goes stale: a link that was congested an hour ago
        says little about the link now, and seeding a fresh association
        from the stale value pins it in the loss-protective mode it no
        longer needs. The estimate halves every ``half_life_s`` since
        the last update; with no timestamped update (or no ``now``) the
        raw value is returned unchanged. Pure — the stored EWMA is not
        modified, so repeated reads don't compound the decay.
        """
        if now is None or self.loss_updated_at is None:
            return self.loss_ewma
        age = now - self.loss_updated_at
        if age <= 0:
            return self.loss_ewma
        return self.loss_ewma * 0.5 ** (age / half_life_s)

    # -- the classifier --------------------------------------------------------

    @property
    def retransmits(self) -> int:
        return self.retransmits_timeout + self.retransmits_nack

    @property
    def loss_events(self) -> int:
        """All loss evidence this entry holds, regardless of cause."""
        return self.retransmits + self.corrupt_arrivals + self.peer_corrupt_arrivals

    def loss_split(self) -> tuple[float, float]:
        """``(congestion, corruption)`` fractions, summing to 1.

        One-sided rule (no peer report yet): corruption evidence is
        every explicit nack plus every corrupt arrival counted twice —
        once for the damaged packet we received, once for the mirrored
        outbound corruption that we can only have seen as a timeout
        (link corruption is direction-symmetric; the inbound half is
        our estimator for the outbound half). Timeout retransmits
        beyond that correction are congestion.

        Fused rule (PROTOCOL.md §16): once the peer has reported its
        ledger over the wire we no longer need the symmetry guess — the
        peer *counted* our outbound packets that arrived damaged. Every
        peer-reported corrupt arrival was one of our sends that died at
        the peer's parser or MAC check, and every locally observed one
        was a reply that died here; both manifested on our side as bare
        timeouts, so both are subtracted from the congestion residue
        and credited to corruption. With no loss evidence at all the
        split is ``(0.0, 0.0)``.
        """
        if self.peer_reports:
            mirrored = self.corrupt_arrivals + self.peer_corrupt_arrivals
            corruption = self.retransmits_nack + mirrored
            congestion = max(0, self.retransmits_timeout - mirrored)
        else:
            corruption = self.retransmits_nack + 2 * self.corrupt_arrivals
            congestion = max(0, self.retransmits_timeout - 2 * self.corrupt_arrivals)
        total = corruption + congestion
        if total == 0:
            return (0.0, 0.0)
        return (congestion / total, corruption / total)

    @property
    def split_confident(self) -> bool:
        """True once enough loss events back the classification."""
        return self.loss_events >= MIN_SPLIT_EVENTS

    def dominant_cause(self) -> str | None:
        """``"corruption"`` or ``"congestion"`` once that cause holds at
        least ``DOMINANT_SHARE`` of a confident split, else ``None``.

        The one rule behind every loss-cause bias: the signer's damper
        and escape hatch (PROTOCOL.md §12), the adaptive controller's
        batch cap and pipelining (§11), and the endpoint's escape
        re-bootstrap (§16).
        """
        if not self.split_confident:
            return None
        congestion, corruption = self.loss_split()
        if corruption >= DOMINANT_SHARE:
            return "corruption"
        if congestion >= DOMINANT_SHARE:
            return "congestion"
        return None

    @property
    def known(self) -> bool:
        """True once the link has any adaptive history to seed from."""
        return self.loss_updates > 0 or self.loss_events > 0

    # -- export ----------------------------------------------------------------

    def _publish(self, now: float) -> None:
        """Mirror the ledger into the registry (exchange-boundary rate:
        this is never on the per-packet path)."""
        registry = self._registry
        if registry is None or not registry.enabled:
            return
        congestion, corruption = self.loss_split()
        registry.record("link.loss.congestion", now, round(congestion, 6))
        registry.record("link.loss.corruption", now, round(corruption, 6))
        registry.gauge("link.loss.estimate").set(round(self.loss_ewma, 6))
        if self.srtt is not None:
            registry.gauge("link.srtt_s").set(round(self.srtt, 6))
        registry.gauge(f"link.{self.peer}.loss.congestion").set(round(congestion, 6))
        registry.gauge(f"link.{self.peer}.loss.corruption").set(round(corruption, 6))

    def snapshot(self) -> dict:
        congestion, corruption = self.loss_split()
        return {
            "peer": self.peer,
            "associations": self.associations,
            "packets_sent": self.packets_sent,
            "retransmits_timeout": self.retransmits_timeout,
            "retransmits_nack": self.retransmits_nack,
            "corrupt_arrivals": self.corrupt_arrivals,
            "deliveries": self.deliveries,
            "rejects": self.rejects,
            "peer_reports": self.peer_reports,
            "peer_corrupt_arrivals": self.peer_corrupt_arrivals,
            "peer_verified": self.peer_verified,
            "peer_dropped": self.peer_dropped,
            "peer_rtt_s": self.peer_rtt_s,
            "exchanges_completed": self.exchanges_completed,
            "exchanges_failed": self.exchanges_failed,
            "rtt_samples": self.rtt_samples,
            "srtt_s": self.srtt,
            "rttvar_s": self.rttvar if self.srtt is not None else None,
            "loss_ewma": self.loss_ewma,
            "loss_updated_at": self.loss_updated_at,
            "loss_congestion": congestion,
            "loss_corruption": corruption,
            "split_confident": self.split_confident,
            "latency": self.latency.snapshot(),
            "latency_p50_s": self.latency.quantile(0.5),
            "latency_p99_s": self.latency.quantile(0.99),
        }


class HealthLedger:
    """The endpoint's book of per-link :class:`LinkHealth` entries."""

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry
        self._links: dict[str, LinkHealth] = {}

    def link(self, peer: str) -> LinkHealth:
        entry = self._links.get(peer)
        if entry is None:
            entry = self._links[peer] = LinkHealth(peer, self._registry)
        return entry

    def get(self, peer: str) -> LinkHealth | None:
        """The entry for ``peer`` if one exists (no implicit creation)."""
        return self._links.get(peer)

    def __len__(self) -> int:
        return len(self._links)

    def __iter__(self):
        return iter(self._links.values())

    @property
    def peers(self) -> list[str]:
        return sorted(self._links)

    def snapshot(self) -> dict[str, dict]:
        return {peer: self._links[peer].snapshot() for peer in sorted(self._links)}
