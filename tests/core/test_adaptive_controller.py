"""AdaptiveController: feedback loop, hysteresis, cooldown, plumbing.

The controller is pure feedback logic over a signer's counters, so the
tests drive it directly: submit messages for queue pressure, bump the
resilience counters for loss pressure, and step simulated time past the
decision interval. The netsim-level behaviour (goodput vs static modes)
lives in benchmarks/bench_adaptive.py; the protocol cleanliness of a
mid-association switch lives in tests/conformance.
"""

import pytest

from repro.core.adaptive import (
    CORRUPTION_BATCH_CAP,
    AdaptiveConfig,
    AdaptiveController,
)
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.hashchain import (
    ACKNOWLEDGMENT_TAGS,
    ChainVerifier,
    HashChain,
)
from repro.core.linkhealth import LOSS_DECAY_HALF_LIFE_S, LinkHealth
from repro.core.modes import Mode, ReliabilityMode
from repro.core.resilience import ResilienceStats
from repro.core.signer import ChannelConfig, SignerSession
from repro.obs import EventKind, Observability

H = 20

#: Deterministic test tuning: decide every 0.5 s, no warmup by default,
#: instant cooldown disabled separately per test.
CFG = AdaptiveConfig(
    decision_interval_s=0.5,
    warmup_intervals=0,
    ewma_alpha=1.0,  # loss estimate == last interval's ratio
    switch_cooldown_s=0.0,
)


def make_signer(sha1, rng, config=None, obs=None):
    sig_chain = HashChain(sha1, rng.random_bytes(H), 256)
    ack_chain = HashChain(sha1, rng.random_bytes(H), 256, tags=ACKNOWLEDGMENT_TAGS)
    return SignerSession(
        sha1,
        sig_chain,
        ChainVerifier(sha1, ack_chain.anchor, tags=ACKNOWLEDGMENT_TAGS),
        config if config is not None else ChannelConfig(),
        assoc_id=9,
        obs=obs,
    )


def feed_traffic(signer, packets=20, retransmits=0):
    """Simulate one interval's wire activity on the signer's counters."""
    signer.stats.packets_sent += packets
    signer.stats.retransmits += retransmits


class TestSignals:
    def test_signer_counts_wire_packets(self, sha1, rng):
        signer = make_signer(
            sha1, rng, ChannelConfig(mode=Mode.CUMULATIVE, batch_size=4)
        )
        for i in range(4):
            signer.submit(b"m%d" % i)
        assert signer.stats.packets_sent == 0
        signer.poll(0.0)  # S1
        assert signer.stats.packets_sent == 1
        # A timed-out S1 resend counts too.
        signer.poll(10.0)
        assert signer.stats.packets_sent == 2

    def test_mean_message_size_tracks_submissions(self, sha1, rng):
        signer = make_signer(sha1, rng)
        signer.submit(b"x" * 100)
        assert signer.mean_message_size == 100.0
        for _ in range(20):
            signer.submit(b"x" * 1000)
        assert 900 < signer.mean_message_size <= 1000

    def test_loss_ewma_from_retransmit_ratio(self, sha1, rng):
        signer = make_signer(sha1, rng)
        ctl = AdaptiveController(signer, CFG)
        feed_traffic(signer, packets=20, retransmits=5)
        ctl.poll(0.0)
        assert ctl.loss_ewma == pytest.approx(0.25)
        # Idle interval: no packets, estimate unchanged.
        ctl.poll(1.0)
        assert ctl.loss_ewma == pytest.approx(0.25)

    def test_interval_gating(self, sha1, rng):
        signer = make_signer(sha1, rng)
        ctl = AdaptiveController(signer, CFG)
        feed_traffic(signer, packets=10, retransmits=10)
        ctl.poll(0.0)
        first = ctl.loss_ewma
        # Within the same interval nothing is resampled or decided.
        feed_traffic(signer, packets=10, retransmits=0)
        assert ctl.poll(0.1) is None
        assert ctl.loss_ewma == first


class TestModeSelection:
    def test_queue_buildup_switches_base_to_cumulative(self, sha1, rng):
        signer = make_signer(sha1, rng)
        ctl = AdaptiveController(signer, CFG)
        for i in range(8):
            signer.submit(b"m%d" % i)
        feed_traffic(signer)
        applied = ctl.poll(0.0)
        assert applied is not None
        assert applied.mode is Mode.CUMULATIVE
        assert signer.config is applied  # reconfigure() already ran
        assert ctl.decisions[-1].kind == "switch"

    def test_loss_selects_merkle_and_collapses_pipelining(self, sha1, rng):
        signer = make_signer(
            sha1, rng, ChannelConfig(mode=Mode.CUMULATIVE, max_outstanding=4)
        )
        ctl = AdaptiveController(signer, CFG)
        for i in range(8):
            signer.submit(b"m%d" % i)
        feed_traffic(signer, packets=20, retransmits=5)  # 25% loss
        applied = ctl.poll(0.0)
        assert applied is not None
        assert applied.mode is Mode.MERKLE
        assert applied.max_outstanding == 1

    def test_shallow_queue_returns_to_base(self, sha1, rng):
        signer = make_signer(
            sha1, rng, ChannelConfig(mode=Mode.CUMULATIVE, batch_size=8)
        )
        ctl = AdaptiveController(signer, CFG)
        feed_traffic(signer)  # clean, queue empty
        applied = ctl.poll(0.0)
        assert applied is not None
        assert applied.mode is Mode.BASE

    def test_batch_tracks_queue_in_powers_of_two(self, sha1, rng):
        signer = make_signer(sha1, rng)
        ctl = AdaptiveController(signer, CFG)
        for i in range(21):
            signer.submit(b"m%d" % i)
        feed_traffic(signer)
        applied = ctl.poll(0.0)
        # Smallest power of two covering the backlog: the signer takes
        # min(batch, queue), so rounding up avoids fragmenting the tail.
        assert applied.batch_size == 32

    def test_cumulative_batch_capped_by_s1_budget(self, sha1, rng):
        cfg = AdaptiveConfig(
            decision_interval_s=0.5,
            warmup_intervals=0,
            ewma_alpha=1.0,
            switch_cooldown_s=0.0,
            batch_max=64,
            s1_presig_budget=8,
        )
        signer = make_signer(sha1, rng)
        ctl = AdaptiveController(signer, cfg)
        for i in range(64):
            signer.submit(b"m%d" % i)
        feed_traffic(signer)
        applied = ctl.poll(0.0)
        assert applied.mode is Mode.CUMULATIVE
        assert applied.batch_size == 8  # capped: the S1 carries n MACs
        # Merkle S1s are constant-size; the same backlog under loss may
        # use the full batch bound.
        feed_traffic(signer, packets=20, retransmits=6)
        applied = ctl.poll(1.0)
        assert applied.mode is Mode.MERKLE
        assert applied.batch_size == 64

    def test_large_messages_raise_the_batching_bar(self, sha1, rng):
        cfg = AdaptiveConfig(
            decision_interval_s=0.5,
            warmup_intervals=0,
            ewma_alpha=1.0,
            switch_cooldown_s=0.0,
            large_message_bytes=256,
        )
        signer = make_signer(sha1, rng)
        ctl = AdaptiveController(signer, cfg)
        for i in range(5):
            signer.submit(b"x" * 512)  # mean well above the threshold
        feed_traffic(signer)
        # 5 >= QUEUE_ENTER, but large payloads double the bar to 8.
        applied = ctl.poll(0.0)
        assert signer.config.mode is Mode.BASE
        for i in range(5):
            signer.submit(b"x" * 512)
        feed_traffic(signer)
        applied = ctl.poll(1.0)
        assert applied is not None and applied.mode is Mode.CUMULATIVE


class TestHysteresisAndCooldown:
    def test_loss_band_prevents_flapping(self, sha1, rng):
        cfg = AdaptiveConfig(
            decision_interval_s=0.5,
            warmup_intervals=0,
            ewma_alpha=1.0,
            switch_cooldown_s=0.0,
            loss_enter=0.05,
            loss_exit=0.02,
        )
        signer = make_signer(sha1, rng)
        ctl = AdaptiveController(signer, cfg)
        for i in range(40):
            signer.submit(b"m%d" % i)
        feed_traffic(signer, packets=100, retransmits=10)  # 10% >= enter
        assert ctl.poll(0.0).mode is Mode.MERKLE
        # Loss falls inside the band (3%): still MERKLE, no flap.
        feed_traffic(signer, packets=100, retransmits=3)
        ctl.poll(1.0)
        assert signer.config.mode is Mode.MERKLE
        # Loss drops below exit (1%): now it may leave.
        feed_traffic(signer, packets=100, retransmits=1)
        ctl.poll(2.0)
        assert signer.config.mode is Mode.CUMULATIVE

    def test_queue_band_prevents_flapping(self, sha1, rng):
        cfg = AdaptiveConfig(
            decision_interval_s=0.5,
            warmup_intervals=0,
            ewma_alpha=1.0,
            switch_cooldown_s=0.0,
        )
        signer = make_signer(sha1, rng)
        ctl = AdaptiveController(signer, cfg)
        for i in range(4):
            signer.submit(b"m%d" % i)
        feed_traffic(signer)
        assert ctl.poll(0.0).mode is Mode.CUMULATIVE
        # Drain to 2 (> QUEUE_EXIT): batched mode holds.
        signer._queue.popleft(), signer._queue.popleft()
        feed_traffic(signer)
        ctl.poll(1.0)
        assert signer.config.mode is Mode.CUMULATIVE
        # Drain below the exit threshold: back to BASE.
        signer._queue.clear()
        feed_traffic(signer)
        ctl.poll(2.0)
        assert signer.config.mode is Mode.BASE

    def test_cooldown_blocks_rapid_mode_switches(self, sha1, rng):
        cfg = AdaptiveConfig(
            decision_interval_s=0.5,
            warmup_intervals=0,
            ewma_alpha=1.0,
            switch_cooldown_s=10.0,
        )
        signer = make_signer(sha1, rng)
        ctl = AdaptiveController(signer, cfg)
        for i in range(8):
            signer.submit(b"m%d" % i)
        feed_traffic(signer)
        assert ctl.poll(0.0).mode is Mode.CUMULATIVE
        # Heavy loss one tick later: the switch to MERKLE must wait out
        # the cooldown even though the signal is unambiguous.
        feed_traffic(signer, packets=10, retransmits=5)
        ctl.poll(1.0)
        assert signer.config.mode is Mode.CUMULATIVE
        feed_traffic(signer, packets=10, retransmits=5)
        applied = ctl.poll(11.0)  # cooldown elapsed
        assert applied is not None and applied.mode is Mode.MERKLE
        switches = [d for d in ctl.decisions if d.kind == "switch"]
        assert len(switches) == 2

    def test_warmup_defers_decisions(self, sha1, rng):
        cfg = AdaptiveConfig(
            decision_interval_s=0.5,
            warmup_intervals=3,
            ewma_alpha=1.0,
            switch_cooldown_s=0.0,
        )
        signer = make_signer(sha1, rng)
        ctl = AdaptiveController(signer, cfg)
        for i in range(8):
            signer.submit(b"m%d" % i)
        # The first two sampled ticks are warmup; the third tick has
        # accumulated warmup_intervals=3 samples and may decide.
        for tick in range(2):
            feed_traffic(signer)
            assert ctl.poll(float(tick)) is None  # still warming up
        feed_traffic(signer)
        assert ctl.poll(2.0) is not None

    def test_stable_conditions_produce_no_decisions(self, sha1, rng):
        signer = make_signer(sha1, rng)
        ctl = AdaptiveController(signer, CFG)
        for i in range(8):
            signer.submit(b"m%d" % i)
        feed_traffic(signer)
        assert ctl.poll(0.0) is not None
        before = len(ctl.decisions)
        for tick in range(1, 6):
            feed_traffic(signer)
            ctl.poll(float(tick))
        # Nothing changed, so nothing was re-applied.
        assert len(ctl.decisions) == before


class TestObservability:
    def test_decisions_emit_events_and_gauges(self, sha1, rng):
        obs = Observability()
        signer = make_signer(sha1, rng, obs=obs)
        ctl = AdaptiveController(signer, CFG, obs=obs, node="s")
        for i in range(8):
            signer.submit(b"m%d" % i)
        feed_traffic(signer)
        ctl.poll(0.0)
        feed_traffic(signer, packets=20, retransmits=8)
        ctl.poll(1.0)
        assert obs.tracer.count(EventKind.ADAPT_SWITCH) == 2
        snap = obs.registry.snapshot()
        assert snap["adaptive.switches"] == 2
        assert snap["adaptive.mode"] == int(Mode.MERKLE)
        assert snap["adaptive.loss_ewma"] == pytest.approx(0.4)
        infos = [
            e.info for e in obs.tracer.events
            if e.kind is EventKind.ADAPT_SWITCH
        ]
        assert "mode=base->cumulative" in infos[0]
        assert "mode=cumulative->merkle" in infos[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(loss_enter=0.01, loss_exit=0.05)
        with pytest.raises(ValueError):
            AdaptiveConfig(decision_interval_s=0.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(batch_max=1)
        with pytest.raises(ValueError):
            AdaptiveConfig(ewma_alpha=0.0)


class TestEndpointIntegration:
    def test_adaptive_endpoint_switches_modes_end_to_end(self):
        """Loopback drive: a backlog makes an adaptive endpoint leave
        BASE, and the verifier delivers everything across the switch."""
        config = EndpointConfig(
            chain_length=512,
            reliability=ReliabilityMode.RELIABLE,
            adaptive=AdaptiveConfig(
                decision_interval_s=0.05,
                warmup_intervals=0,
                switch_cooldown_s=0.0,
            ),
        )
        a = AlphaEndpoint("a", config, seed=1)
        b = AlphaEndpoint("b", config, seed=2)
        _, hs1 = a.connect(b.name)
        out = b.on_packet(hs1, a.name, 0.0)
        a.on_packet(out.replies[0][1], b.name, 0.0)
        messages = [b"payload-%d" % i for i in range(24)]
        for m in messages:
            a.send("b", m)
        delivered = []
        now = 0.0
        for _ in range(400):
            now += 0.05
            outputs = [a.poll(now)]
            while any(o.replies for o in outputs):
                next_outputs = []
                for o in outputs:
                    for dst, payload in o.replies:
                        target = b if dst == "b" else a
                        result = target.on_packet(payload, "a" if dst == "b" else "b", now)
                        delivered.extend(m for _, m in result.delivered)
                        next_outputs.append(result)
                outputs = next_outputs
            if len(delivered) == len(messages) and not a.busy:
                break
        assert [m.message for m in delivered] == messages
        assoc = a._by_peer["b"]
        assert assoc.controller is not None
        assert any(d.kind == "switch" for d in assoc.controller.decisions)
        assert assoc.signer.config.mode is not Mode.BASE or not a.busy

    def test_static_endpoint_has_no_controller(self):
        a = AlphaEndpoint("a", EndpointConfig(chain_length=64), seed=1)
        b = AlphaEndpoint("b", EndpointConfig(chain_length=64), seed=2)
        _, hs1 = a.connect(b.name)
        out = b.on_packet(hs1, a.name, 0.0)
        a.on_packet(out.replies[0][1], b.name, 0.0)
        assert a._by_peer["b"].controller is None


class TestLedgerSeeding:
    """seed_from_link: a new controller adopts known link state."""

    def make_lossy_link(self, loss=0.2):
        link = LinkHealth("v")
        link.update_loss_estimate(loss)
        return link

    def test_seed_applies_merkle_on_known_lossy_link(self, sha1, rng):
        signer = make_signer(sha1, rng)
        link = self.make_lossy_link(0.2)
        ctl = AdaptiveController(signer, CFG, link=link)
        applied = ctl.seed_from_link(0.0)
        assert applied is not None
        assert applied.mode is Mode.MERKLE
        assert ctl.loss_ewma == pytest.approx(0.2)
        assert ctl.decisions[0].kind == "seed"
        assert "ledger" in ctl.decisions[0].reason

    def test_seed_waives_warmup(self, sha1, rng):
        cfg = AdaptiveConfig(
            decision_interval_s=0.5,
            warmup_intervals=4,
            ewma_alpha=1.0,
            switch_cooldown_s=0.0,
        )
        signer = make_signer(sha1, rng)
        ctl = AdaptiveController(signer, cfg, link=self.make_lossy_link())
        ctl.seed_from_link(0.0)
        # A seeded controller decides immediately; no warmup intervals.
        feed_traffic(signer, packets=20, retransmits=10)
        assert ctl.poll(0.6) is not None

    def test_unknown_link_seeds_nothing(self, sha1, rng):
        signer = make_signer(sha1, rng)
        ctl = AdaptiveController(signer, CFG, link=LinkHealth("v"))
        assert ctl.seed_from_link(0.0) is None
        assert ctl.decisions == []
        assert AdaptiveController(signer, CFG).seed_from_link(0.0) is None

    def test_clean_link_adopts_estimate_without_switching(self, sha1, rng):
        signer = make_signer(sha1, rng)
        link = LinkHealth("v")
        link.update_loss_estimate(0.01)  # below loss_enter
        ctl = AdaptiveController(signer, CFG, link=link)
        assert ctl.seed_from_link(0.0) is None
        assert ctl.loss_ewma == pytest.approx(0.01)
        assert signer.config.mode is Mode.BASE

    def test_sampling_feeds_estimate_back_to_link(self, sha1, rng):
        signer = make_signer(sha1, rng)
        link = LinkHealth("v")
        ctl = AdaptiveController(signer, CFG, link=link)
        feed_traffic(signer, packets=20, retransmits=5)
        ctl.poll(0.0)
        assert link.known
        assert link.loss_ewma == pytest.approx(0.25)
        # The write-back is timestamped so a later association can age it.
        assert link.loss_updated_at == 0.0

    def test_seed_ages_a_stale_estimate(self, sha1, rng):
        # The ledger saw 20% loss long ago; several half-lives later a
        # fresh association must not start in Merkle on that ghost.
        signer = make_signer(sha1, rng)
        link = LinkHealth("v")
        link.update_loss_estimate(0.2, now=0.0)
        ctl = AdaptiveController(signer, CFG, link=link)
        now = 6 * LOSS_DECAY_HALF_LIFE_S  # 0.2 / 2**6 = 0.003 < loss_enter
        assert ctl.seed_from_link(now) is None
        assert ctl.loss_ewma == pytest.approx(0.2 / 64)
        assert signer.config.mode is Mode.BASE

    def test_seed_keeps_a_half_fresh_estimate_protective(self, sha1, rng):
        # One half-life on a heavily lossy link still clears loss_enter:
        # the decay forgets gradually, not on a cliff.
        signer = make_signer(sha1, rng)
        link = LinkHealth("v")
        link.update_loss_estimate(0.2, now=0.0)
        ctl = AdaptiveController(signer, CFG, link=link)
        applied = ctl.seed_from_link(LOSS_DECAY_HALF_LIFE_S)
        assert applied is not None
        assert applied.mode is Mode.MERKLE
        assert ctl.loss_ewma == pytest.approx(0.1)


class TestCorruptionAwareTuning:
    """Corruption-dominated links batch tighter but keep pipelining."""

    def corrupting_link(self):
        # Pure corruption evidence.
        stats = ResilienceStats(retransmits_nack=8)
        return LinkHealth("v", counts=lambda: stats)

    def congested_link(self):
        stats = ResilienceStats(retransmits_timeout=8)
        return LinkHealth("v", counts=lambda: stats)

    def test_corruption_keeps_pipelining(self, sha1, rng):
        signer = make_signer(
            sha1, rng, ChannelConfig(mode=Mode.CUMULATIVE, max_outstanding=4)
        )
        ctl = AdaptiveController(signer, CFG, link=self.corrupting_link())
        for i in range(32):
            signer.submit(b"m%d" % i)
        feed_traffic(signer, packets=20, retransmits=5)  # lossy
        applied = ctl.poll(0.0)
        assert applied is not None
        assert applied.mode is Mode.MERKLE
        # Corruption loss is not congestion: outstanding stays open...
        assert applied.max_outstanding > 1
        # ...but the batch is capped to tighten pre-ack spacing.
        assert applied.batch_size <= CORRUPTION_BATCH_CAP

    def test_congestion_still_collapses_outstanding(self, sha1, rng):
        signer = make_signer(
            sha1, rng, ChannelConfig(mode=Mode.CUMULATIVE, max_outstanding=4)
        )
        ctl = AdaptiveController(signer, CFG, link=self.congested_link())
        for i in range(32):
            signer.submit(b"m%d" % i)
        feed_traffic(signer, packets=20, retransmits=5)
        applied = ctl.poll(0.0)
        assert applied is not None
        assert applied.max_outstanding == 1

    def test_unconfident_split_defaults_to_congestion_response(self, sha1, rng):
        # Corruption hint, but < MIN_SPLIT_EVENTS.
        stats = ResilienceStats(retransmits_nack=1)
        link = LinkHealth("v", counts=lambda: stats)
        signer = make_signer(
            sha1, rng, ChannelConfig(mode=Mode.CUMULATIVE, max_outstanding=4)
        )
        ctl = AdaptiveController(signer, CFG, link=link)
        for i in range(8):
            signer.submit(b"m%d" % i)
        feed_traffic(signer, packets=20, retransmits=5)
        applied = ctl.poll(0.0)
        assert applied is not None and applied.max_outstanding == 1
