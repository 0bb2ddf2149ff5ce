"""Unit tests for the per-link health ledger and its loss classifier."""

from __future__ import annotations

import pytest

from repro.core.linkhealth import MIN_SPLIT_EVENTS, HealthLedger, LinkHealth
from repro.core.resilience import ResilienceStats
from repro.obs.metrics import MetricsRegistry


def fed(link):
    """The signer block ``link`` reads its counters from."""
    stats = ResilienceStats()
    link.on_association()
    link.counts = lambda: stats
    return stats


class TestClassifier:
    def test_no_evidence_no_split(self):
        link = LinkHealth("v")
        assert link.loss_split() == (0.0, 0.0)
        assert not link.split_confident
        assert not link.known

    def test_pure_congestion(self):
        link = LinkHealth("v")
        fed(link).retransmits_timeout = 6
        congestion, corruption = link.loss_split()
        assert congestion == 1.0 and corruption == 0.0
        assert link.split_confident

    def test_pure_corruption_via_nacks(self):
        link = LinkHealth("v")
        fed(link).retransmits_nack = 5
        congestion, corruption = link.loss_split()
        assert congestion == 0.0 and corruption == 1.0

    def test_corrupt_arrivals_mirror_onto_timeouts(self):
        # 4 timeouts, 2 of which are explained by the mirrored outbound
        # halves of 1 locally-seen corrupt arrival (counted twice):
        # corruption = 0 nacks + 2*1 = 2, congestion = 4 - 2 = 2.
        link = LinkHealth("v")
        fed(link).retransmits_timeout = 4
        link.on_corrupt_arrival()
        congestion, corruption = link.loss_split()
        assert congestion == pytest.approx(0.5)
        assert corruption == pytest.approx(0.5)

    def test_congestion_never_negative(self):
        link = LinkHealth("v")
        fed(link).retransmits_timeout = 1
        for _ in range(3):
            link.on_corrupt_arrival()
        congestion, corruption = link.loss_split()
        assert congestion == 0.0 and corruption == 1.0

    def test_confidence_threshold(self):
        link = LinkHealth("v")
        stats = fed(link)
        stats.retransmits_nack = MIN_SPLIT_EVENTS - 1
        assert not link.split_confident
        stats.retransmits_nack += 1
        assert link.split_confident


class TestLinkHealth:
    def test_rtt_ewma(self):
        link = LinkHealth("v")
        stats = fed(link)
        link.on_rtt_sample(0.1)
        assert link.srtt == pytest.approx(0.1)
        assert link.rttvar == pytest.approx(0.05)
        link.on_rtt_sample(0.2)
        assert 0.1 < link.srtt < 0.2
        stats.rtt_samples = 2
        assert link.rtt_samples == 2

    def test_known_after_loss_update(self):
        link = LinkHealth("v")
        assert not link.known
        link.update_loss_estimate(0.07)
        assert link.known
        assert link.loss_ewma == pytest.approx(0.07)

    def test_exchange_latency_histogram(self):
        link = LinkHealth("v")
        stats = fed(link)
        link.on_exchange_done(1.0, 0.02)
        link.on_exchange_done(2.0, 0.04)
        link.on_exchange_failed(3.0)
        stats.exchanges_completed, stats.exchanges_failed = 2, 1
        assert link.exchanges_completed == 2
        assert link.exchanges_failed == 1
        assert link.latency.count == 2
        snap = link.snapshot()
        assert snap["latency_p50_s"] is not None

    def test_publish_mirrors_to_registry(self):
        registry = MetricsRegistry()
        link = LinkHealth("v", registry)
        fed(link).retransmits_nack = 4
        link.on_exchange_done(5.0, 0.01)
        assert registry.gauge("link.loss.corruption").value == 1.0
        assert registry.gauge("link.v.loss.corruption").value == 1.0
        assert registry.series("link.loss.corruption").last == (5.0, 1.0)

    def test_snapshot_fields(self):
        link = LinkHealth("v")
        fed(link).packets_sent = 10
        snap = link.snapshot()
        assert snap["peer"] == "v"
        assert snap["associations"] == 1
        assert snap["packets_sent"] == 10
        assert snap["srtt_s"] is None


class TestLossAging:
    """Time-decay of the carried-over loss estimate (PROTOCOL.md §11)."""

    def test_estimate_halves_every_half_life(self):
        link = LinkHealth("v")
        link.update_loss_estimate(0.2, now=0.0)
        half_life = 60.0
        assert link.loss_estimate(0.0, half_life) == pytest.approx(0.2)
        assert link.loss_estimate(60.0, half_life) == pytest.approx(0.1)
        assert link.loss_estimate(120.0, half_life) == pytest.approx(0.05)
        # Fractional ages decay continuously, not in steps.
        assert link.loss_estimate(30.0, half_life) == pytest.approx(
            0.2 * 0.5**0.5
        )

    def test_decay_is_pure(self):
        # Repeated reads must not compound: the stored EWMA is the
        # source of truth, the decay is computed per read.
        link = LinkHealth("v")
        link.update_loss_estimate(0.2, now=0.0)
        first = link.loss_estimate(60.0)
        second = link.loss_estimate(60.0)
        assert first == second
        assert link.loss_ewma == pytest.approx(0.2)

    def test_untimestamped_update_never_decays(self):
        # Callers that don't pass ``now`` keep the raw, undecaying
        # behaviour (backwards compatible with pre-aging snapshots).
        link = LinkHealth("v")
        link.update_loss_estimate(0.2)
        assert link.loss_updated_at is None
        assert link.loss_estimate(10_000.0) == pytest.approx(0.2)

    def test_read_without_now_returns_raw(self):
        link = LinkHealth("v")
        link.update_loss_estimate(0.2, now=0.0)
        assert link.loss_estimate() == pytest.approx(0.2)

    def test_clock_skew_returns_raw(self):
        # ``now`` earlier than the update (clock reset mid-run) must
        # not inflate the estimate via a negative exponent.
        link = LinkHealth("v")
        link.update_loss_estimate(0.2, now=100.0)
        assert link.loss_estimate(50.0) == pytest.approx(0.2)

    def test_fresh_update_resets_the_decay_clock(self):
        link = LinkHealth("v")
        link.update_loss_estimate(0.2, now=0.0)
        link.update_loss_estimate(0.3, now=600.0)
        assert link.loss_estimate(660.0) == pytest.approx(0.15)

    def test_snapshot_carries_the_timestamp(self):
        link = LinkHealth("v")
        assert link.snapshot()["loss_updated_at"] is None
        link.update_loss_estimate(0.2, now=42.0)
        assert link.snapshot()["loss_updated_at"] == 42.0


class TestHealthLedger:
    def test_create_on_demand_and_persistence(self):
        ledger = HealthLedger()
        link = ledger.link("v")
        assert ledger.link("v") is link  # same entry across associations
        assert ledger.get("v") is link
        assert ledger.get("w") is None  # get never creates
        assert len(ledger) == 1
        assert [link.peer for link in ledger] == ["v"]

    def test_iteration_and_snapshot(self):
        ledger = HealthLedger()
        fed(ledger.link("b")).packets_sent = 2
        fed(ledger.link("a")).packets_sent = 1
        assert [link.peer for link in ledger] == ["b", "a"]
        snap = ledger.snapshot()
        assert list(snap) == ["a", "b"]  # snapshot is peer-sorted
        assert snap["a"]["packets_sent"] == 1
