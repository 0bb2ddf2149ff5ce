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

The ledger is this endpoint's own view: nothing in it comes off the
wire unauthenticated. Its dominant cause steers the adaptive
controller; the signer only writes to it. What the signers count it
reads from the endpoint (:meth:`AlphaEndpoint.resilience_stats` for
its peer, live and drained sessions alike); it keeps corrupt arrivals,
two EWMAs and one fixed-bucket histogram per link, so an entry stays a
few hundred bytes.
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.core.resilience import ResilienceStats
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


def _counted(field: str) -> property:
    """A signer counter, read from :attr:`LinkHealth.counts`."""
    return property(lambda self: getattr(self.counts(), field))


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
        "corrupt_arrivals",
        "srtt",
        "rttvar",
        "loss_ewma",
        "loss_updates",
        "loss_updated_at",
        "latency",
        "_registry",
        "counts",
    )

    packets_sent = _counted("packets_sent")
    #: Retransmits provoked by a deadline expiring (nothing came back):
    #: the congestion-flavoured signal.
    retransmits_timeout = _counted("retransmits_timeout")
    #: Retransmits provoked by an explicit A2 nack (the peer received
    #: damaged bytes): the corruption-flavoured signal.
    retransmits_nack = _counted("retransmits_nack")
    exchanges_completed = _counted("exchanges_completed")
    exchanges_failed = _counted("exchanges_failed")
    rtt_samples = _counted("rtt_samples")

    def __init__(
        self,
        peer: str,
        registry: MetricsRegistry | None = None,
        counts: Callable[[], ResilienceStats] = ResilienceStats,
    ) -> None:
        self.peer = peer
        self.associations = 0
        #: The summed ``stats`` of this peer's signers, live and
        #: drained: the signer counters above are read from it. The
        #: default reads zero.
        self.counts = counts
        #: Inbound packets that arrived damaged (parse drops, bad MACs,
        #: broken chain elements) — corruption seen first-hand.
        self.corrupt_arrivals = 0
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
        self._registry = registry

    # -- mutators (called from the protocol engines) ---------------------------

    def on_association(self) -> None:
        self.associations += 1

    def on_corrupt_arrival(self) -> None:
        self.corrupt_arrivals += 1

    def on_rtt_sample(self, rtt_s: float) -> None:
        if self.srtt is None:
            self.srtt = rtt_s
            self.rttvar = rtt_s / 2
        else:
            self.rttvar += _RTT_GAIN * (abs(self.srtt - rtt_s) - self.rttvar)
            self.srtt += _RTT_GAIN * (rtt_s - self.srtt)

    def on_exchange_done(self, now: float, latency_s: float) -> None:
        self.latency.observe(latency_s)
        self._publish(now)

    def on_exchange_failed(self, now: float) -> None:
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
        return self.retransmits + self.corrupt_arrivals

    def loss_split(self) -> tuple[float, float]:
        """``(congestion, corruption)`` fractions, summing to 1.

        One-sided rule (PROTOCOL.md §11): corruption evidence is every
        explicit nack plus every corrupt arrival counted twice — once
        for the damaged packet we received, once for the mirrored
        outbound corruption that we can only have seen as a timeout
        (link corruption is direction-symmetric; the inbound half is
        our estimator for the outbound half). Timeout retransmits
        beyond that correction are congestion. With no loss evidence at
        all the split is ``(0.0, 0.0)``.
        """
        mirrored = 2 * self.corrupt_arrivals
        corruption = self.retransmits_nack + mirrored
        congestion = max(0, self.retransmits_timeout - mirrored)
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

        The one rule behind every loss-cause bias, all of them the
        adaptive controller's: its batch cap and pipelining (PROTOCOL.md
        §11).
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
    """The endpoint's book of per-link :class:`LinkHealth` entries;
    ``counts(peer)`` is where each entry reads its signer counters."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        counts: Callable[[str], ResilienceStats] = lambda peer: ResilienceStats(),
    ) -> None:
        self._registry = registry
        self._counts = counts
        self._links: dict[str, LinkHealth] = {}

    def link(self, peer: str) -> LinkHealth:
        entry = self._links.get(peer)
        if entry is None:
            entry = self._links[peer] = LinkHealth(
                peer, self._registry, functools.partial(self._counts, peer)
            )
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
