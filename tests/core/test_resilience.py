"""Resilience layer: RTO adaptation, dead peers, eviction, failures.

Covers the pieces added on top of the protocol engines: the RFC 6298
estimator, adaptive retransmission in the signer, terminal exchange
failure, dead-peer detection with optional auto re-bootstrap, relay
buffer eviction (TTL and byte capacity), and the stats plumbing that
surfaces all of it.
"""

from dataclasses import asdict

import pytest

from repro.canonical import CanonicalChannel
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.exceptions import ProtocolError
from repro.core.modes import ReliabilityMode
from repro.core.packets import decode_packet
from repro.core.resilience import ExchangeFailed, ResilienceStats, RttEstimator
from repro.core.signer import ChannelConfig
from repro.obs import EventKind, Observability

ASSOC = 99


def make_channel(sha1, rng, config=None):
    channel = CanonicalChannel(rng, config, relays=0, assoc_id=ASSOC)
    return channel.signer, channel.verifier


class TestRttEstimator:
    def test_initial_rto(self):
        est = RttEstimator(initial_rto_s=0.25)
        assert est.rto == 0.25
        assert est.srtt is None

    def test_first_sample_seeds_srtt(self):
        est = RttEstimator(initial_rto_s=1.0, min_rto_s=0.01)
        est.observe(0.1)
        assert est.srtt == pytest.approx(0.1)
        assert est.rttvar == pytest.approx(0.05)
        assert est.rto == pytest.approx(0.1 + 4 * 0.05)

    def test_ewma_smooths_later_samples(self):
        est = RttEstimator(min_rto_s=0.001)
        est.observe(0.1)
        est.observe(0.2)
        assert est.srtt == pytest.approx(0.1 * 7 / 8 + 0.2 / 8)
        assert est.samples == 2

    def test_backoff_doubles_and_clamps(self):
        est = RttEstimator(initial_rto_s=1.0, max_rto_s=5.0)
        assert est.backoff() == 2.0
        assert est.backoff() == 4.0
        assert est.backoff() == 5.0  # clamped
        assert est.rto == 5.0

    def test_sample_resets_backoff(self):
        est = RttEstimator(initial_rto_s=1.0, min_rto_s=0.01)
        est.backoff()
        est.backoff()
        est.observe(0.1)
        assert est.rto == pytest.approx(0.3)

    def test_clear_backoff_keeps_estimate(self):
        est = RttEstimator(initial_rto_s=1.0, min_rto_s=0.01)
        est.observe(0.1)
        backed = est.backoff()
        assert backed > 0.3
        est.clear_backoff()
        assert est.rto == pytest.approx(0.3)
        assert est.srtt == pytest.approx(0.1)  # estimate untouched

    def test_clear_backoff_sample_reseeds_when_pinned(self):
        # Karn kept the SRTT frozen while the RTO rode its ceiling; the
        # escape-hatch probe's round trip reseeds the estimator as if
        # it were the first sample instead of EWMA-folding into a stale
        # estimate that no longer describes the link.
        est = RttEstimator(initial_rto_s=1.0, min_rto_s=0.01, max_rto_s=4.0)
        est.observe(1.0)  # srtt=1.0, rto=3.0
        assert est.backoff() == 4.0  # pinned at the ceiling
        est.clear_backoff(0.1)
        assert est.srtt == pytest.approx(0.1)
        assert est.rttvar == pytest.approx(0.05)
        assert est.rto == pytest.approx(0.3)
        assert est.samples == 2

    def test_clear_backoff_sample_seeds_empty_estimator(self):
        est = RttEstimator(initial_rto_s=1.0, min_rto_s=0.01)
        est.clear_backoff(0.2)
        assert est.srtt == pytest.approx(0.2)
        assert est.samples == 1
        assert est.rto == pytest.approx(0.6)

    def test_clear_backoff_sample_folds_in_below_ceiling(self):
        # Not pinned: the sample is an ordinary observation (the SRTT
        # is still live), and the backoff still collapses.
        est = RttEstimator(initial_rto_s=1.0, min_rto_s=0.01, max_rto_s=60.0)
        est.observe(0.1)
        est.backoff()  # 0.3 -> 0.6, nowhere near the ceiling
        est.clear_backoff(0.1)
        assert est.samples == 2
        assert est.srtt == pytest.approx(0.1)
        # rttvar tightens (0.05 -> 0.0375): the sample folded in as a
        # normal observation, and the backoff collapsed with it.
        assert est.rto == pytest.approx(0.25)

    def test_clear_backoff_sample_validation(self):
        est = RttEstimator()
        with pytest.raises(ValueError):
            est.clear_backoff(-0.1)

    def test_min_clamp(self):
        est = RttEstimator(initial_rto_s=1.0, min_rto_s=0.5)
        est.observe(0.001)
        assert est.rto == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RttEstimator(initial_rto_s=0)
        with pytest.raises(ValueError):
            RttEstimator(min_rto_s=2.0, max_rto_s=1.0)
        est = RttEstimator()
        with pytest.raises(ValueError):
            est.observe(-0.1)


class TestAdaptiveSigner:
    def adaptive_config(self, **kw):
        defaults = dict(
            retransmit_timeout_s=0.5,
            max_retries=8,
            adaptive_rto=True,
            backoff_jitter=0.0,  # exact deadlines for assertions
        )
        defaults.update(kw)
        return ChannelConfig(**defaults)

    def test_clean_rtt_sample_feeds_estimator(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng, self.adaptive_config())
        signer.submit(b"m")
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        a1 = decode_packet(verifier.handle_s1(s1, 0.1), 20)
        signer.handle_a1(a1, 0.1)
        assert signer.stats.rtt_samples == 1
        assert signer.rtt.srtt == pytest.approx(0.1)

    def test_karn_retransmitted_exchange_not_sampled(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng, self.adaptive_config())
        signer.submit(b"m")
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        # The S1 times out once before the A1 arrives.
        retrans = signer.poll(0.6)
        assert retrans  # retransmitted
        a1 = decode_packet(verifier.handle_s1(s1, 0.7), 20)
        signer.handle_a1(a1, 0.7)
        assert signer.stats.rtt_samples == 0
        assert signer.rtt.srtt is None

    def test_timeout_backs_off_exponentially(self, sha1, rng):
        signer, _ = make_channel(sha1, rng, self.adaptive_config())
        signer.submit(b"m")
        signer.poll(0.0)
        (exchange,) = signer._exchanges.values()
        assert exchange.deadline == pytest.approx(0.5)
        signer.poll(0.5)  # retry 1: RTO doubles to 1.0
        assert exchange.deadline == pytest.approx(1.5)
        signer.poll(1.5)  # retry 2: RTO doubles to 2.0
        assert exchange.deadline == pytest.approx(3.5)
        assert signer.stats.backoff_events == 2
        assert signer.stats.retransmits == 2

    def test_backoff_jitter_spreads_deadlines(self, sha1, rng):
        config = self.adaptive_config(backoff_jitter=0.5)
        signer, _ = make_channel(sha1, rng, config)
        signer.submit(b"m")
        signer.poll(0.0)
        (exchange,) = signer._exchanges.values()
        signer.poll(0.5)
        # Backed-off deadline lands in (0.5 + 1.0, 0.5 + 1.5].
        assert 1.5 < exchange.deadline <= 2.0

    def test_fixed_mode_never_backs_off(self, sha1, rng):
        config = self.adaptive_config(adaptive_rto=False)
        signer, _ = make_channel(sha1, rng, config)
        signer.submit(b"m")
        signer.poll(0.0)
        (exchange,) = signer._exchanges.values()
        signer.poll(0.5)
        assert exchange.deadline == pytest.approx(1.0)
        assert signer.stats.backoff_events == 0

    def test_retry_cap_surfaces_exchange_failed(self, sha1, rng):
        config = self.adaptive_config(max_retries=2, adaptive_rto=False)
        signer, _ = make_channel(sha1, rng, config)
        signer.submit(b"doomed")
        now = 0.0
        signer.poll(now)
        for _ in range(4):
            now += 1.0
            signer.poll(now)
        failures = signer.drain_failures()
        assert len(failures) == 1
        failure = failures[0]
        assert isinstance(failure, ExchangeFailed)
        assert failure.reason == "retry-cap"
        assert failure.peer == "v"
        assert failure.messages == [b"doomed"]
        assert signer.consecutive_failures == 1

    def test_terminal_failure_resets_backoff_for_next_exchange(self, sha1, rng):
        config = self.adaptive_config(max_retries=1)
        signer, _ = make_channel(sha1, rng, config)
        signer.submit(b"one")
        signer.submit(b"two")
        signer.poll(0.0)
        signer.poll(0.5)  # retry 1 (backs off to 1.0)
        packets = signer.poll(2.0)  # fail, start next exchange
        assert len(packets) == 1
        (exchange,) = signer._exchanges.values()
        # Fresh exchange starts from the estimate, not the dead one's
        # terminal backoff.
        assert exchange.deadline == pytest.approx(2.5)


def establish(a, b):
    _, hs1 = a.connect(b.name)
    out = b.on_packet(hs1, a.name, 0.0)
    a.on_packet(out.replies[0][1], b.name, 0.0)


class TestDeadPeerDetection:
    def make_endpoints(self, **cfg):
        defaults = dict(
            chain_length=64,
            retransmit_timeout_s=0.5,
            max_retries=1,
            dead_peer_threshold=2,
            adaptive_rto=False,
            rekey_threshold=0,
        )
        defaults.update(cfg)
        config = EndpointConfig(**defaults)
        a = AlphaEndpoint("a", config, seed=1)
        b = AlphaEndpoint("b", config, seed=2)
        establish(a, b)
        return a, b

    def kill_peer_and_drain(self, a, rounds=12):
        """Poll ``a`` with the peer silent until failures accumulate."""
        failures = []
        now = 0.0
        for _ in range(rounds):
            now += 1.0
            failures.extend(a.poll(now).failures)
        return failures

    def test_association_goes_down_after_threshold(self):
        a, _ = self.make_endpoints()
        for i in range(3):
            a.send("b", b"msg-%d" % i)
        self.kill_peer_and_drain(a)
        assert a.peer_down("b")
        assert a.stats.dead_peers == 1

    def test_queued_messages_fail_terminally(self):
        a, _ = self.make_endpoints()
        for i in range(5):
            a.send("b", b"msg-%d" % i)
        failures = self.kill_peer_and_drain(a)
        reasons = {f.reason for _, f in failures}
        assert "retry-cap" in reasons
        assert "dead-peer" in reasons
        # Every submitted payload shows up in exactly one failure.
        failed_payloads = [m for _, f in failures for m in f.messages]
        assert sorted(failed_payloads) == sorted(b"msg-%d" % i for i in range(5))

    def test_send_to_down_peer_raises(self):
        a, _ = self.make_endpoints()
        for i in range(3):
            a.send("b", b"msg-%d" % i)
        self.kill_peer_and_drain(a)
        assert a.peer_down("b")
        with pytest.raises(ProtocolError, match="DOWN"):
            a.send("b", b"too late")

    def test_reconnect_after_down_allowed(self):
        a, b = self.make_endpoints()
        for i in range(3):
            a.send("b", b"msg-%d" % i)
        self.kill_peer_and_drain(a)
        assert a.peer_down("b")
        # The peer comes back; an explicit reconnect supersedes the DOWN
        # association and traffic flows again.
        _, hs1 = a.connect("b")
        out = b.on_packet(hs1, "a", 100.0)
        a.on_packet(out.replies[0][1], "b", 100.0)
        assert not a.peer_down("b")
        a.send("b", b"hello again")
        out = a.poll(100.1)
        assert out.replies  # fresh S1 on the wire

    def test_dead_peer_fails_queue_and_reconnect_resends(self):
        """No automatic re-bootstrap: a DOWN peer fails every queued
        message, and the application resends them after ``connect()``."""
        a, b = self.make_endpoints()
        sent = [b"msg-%d" % i for i in range(4)]
        for message in sent:
            a.send("b", message)
        failures = self.kill_peer_and_drain(a)
        assert a.peer_down("b")
        assert a.stats.dead_peers == 1
        failed = [m for _, f in failures for m in f.messages]
        assert sorted(failed) == sorted(sent)
        _, hs1 = a.connect("b", now=100.0)
        out = b.on_packet(hs1, "a", 100.0)
        a.on_packet(out.replies[0][1], "b", 100.0)
        for message in failed:
            a.send("b", message)
        delivered = []
        inflight = [(b, a, data) for _, data in a.poll(100.1).replies]
        while inflight:
            dst, src, data = inflight.pop(0)
            result = dst.on_packet(data, src.name, 100.1)
            delivered.extend(m.message for _, m in result.delivered)
            inflight.extend((src, dst, reply) for _, reply in result.replies)
        assert sorted(delivered) == sorted(sent)
        assert set(delivered) <= {b"msg-%d" % i for i in range(4)}

    def test_handshake_retry_cap_is_terminal(self):
        config = EndpointConfig(
            chain_length=64, retransmit_timeout_s=0.5, max_retries=2
        )
        a = AlphaEndpoint("a", config, seed=7)
        a.connect("b")
        a.send("b", b"never-sent")
        failures = []
        now = 0.0
        for _ in range(8):
            now += 1.0
            failures.extend(a.poll(now).failures)
        assert len(failures) == 1
        peer, failure = failures[0]
        assert peer == "b"
        assert failure.reason == "handshake-timeout"
        assert failure.messages == [b"never-sent"]
        # The half-open association is gone and the endpoint is idle —
        # no infinite HS1 loop, no wedged busy flag.
        assert "b" not in a.peers
        assert not a.busy

    def test_zero_threshold_disables_detection(self):
        a, _ = self.make_endpoints(dead_peer_threshold=0)
        for i in range(5):
            a.send("b", b"msg-%d" % i)
        self.kill_peer_and_drain(a, rounds=30)
        assert not a.peer_down("b")


class TestOneFailoverAttemptPerEscape:
    """A terminal rto-escape consults the path manager once: the signer's
    escape hook asks, and the forced dead-peer check that follows does
    not ask again."""

    @pytest.mark.parametrize("paths", [1, 2])
    def test_exhausted_escape_counts_once(self, paths):
        config = EndpointConfig(
            reliability=ReliabilityMode.RELIABLE,
            chain_length=64,
            max_retries=40,
            rto_max_s=2.0,
            rekey_threshold=0,
            max_failovers=1,
        )
        obs = Observability()
        a = AlphaEndpoint("a", config, seed=1, obs=obs)
        b = AlphaEndpoint("b", config, seed=2)
        establish(a, b)
        for i in range(paths):
            a.paths.register("b", f"via-r{i}", (f"r{i}",))
        a.send("b", b"black-holed")
        now = 0.0
        while not a.peer_down("b"):  # nothing ever comes back from b
            now += 0.5
            assert now < 600.0, "the escape never ended the association"
            a.poll(now)
        # Two paths spend the one-failover budget on the first escape.
        assert a.stats.failovers == paths - 1
        assert a.stats.failovers_exhausted == 1
        assert obs.tracer.count(EventKind.FAILOVER_EXHAUSTED) == 1


class TestStatsPlumbing:
    def test_merge_and_as_dict(self):
        left = ResilienceStats(retransmits=2, dead_peers=1)
        right = ResilienceStats(retransmits=3, failovers=4)
        left.merge(right)
        assert left.retransmits == 5
        assert left.failovers == 4
        assert asdict(left)["dead_peers"] == 1
        assert sum(asdict(left).values()) == 10

    def test_endpoint_aggregates_signer_counters(self):
        config = EndpointConfig(
            chain_length=64,
            retransmit_timeout_s=0.5,
            max_retries=1,
            adaptive_rto=False,
            dead_peer_threshold=0,
        )
        a = AlphaEndpoint("a", config, seed=1)
        b = AlphaEndpoint("b", config, seed=2)
        establish(a, b)
        a.send("b", b"x")
        for now in (1.0, 2.0, 3.0):
            a.poll(now)
        stats = a.resilience_stats()
        assert stats.retransmits >= 1
        assert stats.exchanges_failed == 1

    def test_aggregate_builds_fresh_block_without_touching_sources(self):
        left = ResilienceStats(retransmits=2, dead_peers=1)
        right = ResilienceStats(retransmits=3, failovers=4)
        total = ResilienceStats.aggregate(left, right)
        assert total.retransmits == 5
        assert total.dead_peers == 1
        assert total.failovers == 4
        # Sources untouched, so aggregation is repeatable.
        assert left.retransmits == 2 and right.retransmits == 3
        assert ResilienceStats.aggregate(left, right) == total

    def test_resilience_stats_snapshot_idempotent(self):
        # Regression: aggregating per-signer counters into a long-lived
        # block on every snapshot double-counts them; the snapshot must
        # build a fresh block each call so consecutive calls agree.
        config = EndpointConfig(
            chain_length=64,
            retransmit_timeout_s=0.5,
            max_retries=1,
            adaptive_rto=False,
            dead_peer_threshold=0,
        )
        a = AlphaEndpoint("a", config, seed=1)
        b = AlphaEndpoint("b", config, seed=2)
        establish(a, b)
        a.send("b", b"x")
        for now in (1.0, 2.0, 3.0):
            a.poll(now)
        first = asdict(a.resilience_stats())
        second = asdict(a.resilience_stats())
        third = asdict(a.resilience_stats())
        assert first == second == third
        assert first["retransmits"] >= 1  # the scenario produced counts
        assert first["exchanges_failed"] == 1
        # The endpoint's own block was not inflated by the snapshots.
        assert a.stats.retransmits == 0

    def test_corrupt_packet_counted_not_raised(self):
        config = EndpointConfig(chain_length=64)
        a = AlphaEndpoint("a", config, seed=1)
        out = a.on_packet(b"\xff\x00garbage", "b", 0.0)
        assert out.replies == []
        assert a.stats.corrupt_drops == 1
