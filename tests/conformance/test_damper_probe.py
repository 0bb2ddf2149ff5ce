"""Conformance: storm-damper and escape-hatch event sequences (§12).

The nack-storm damper and the RTO escape hatch each have a small state
machine (PROTOCOL.md §12); these tests pin the *exact* observable
sequence each one produces when it engages:

- damper: ``NACK_BUCKET`` nack-provoked retransmits at full speed, then
  ``NACK_SUPPRESSED`` with the deadline left untouched, reopening once
  a token refills;
- verifier half: duplicate nacks for one damaged index answered only on
  power-of-two arrivals;
- escape hatch: K consecutive ``BACKOFF`` events at the RTO ceiling,
  then ``RTO_PROBE``, then either ``PROBE_RECOVERY`` (repeated A1, RTO
  reseeded below the ceiling) or ``EXCHANGE_FAILED`` with reason
  ``rto-escape`` (probe budget exhausted / structurally stuck).

The final tests replay wedge-corpus scenarios through netsim with the
tracer attached, so the same signatures are asserted *under loss*.
"""

from __future__ import annotations

import pytest

from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import decode_packet
from repro.core.signer import (
    NACK_BUCKET,
    RTO_PROBE_AFTER,
    ChannelConfig,
)
from repro.canonical import CanonicalChannel
from repro.obs import EventKind as K
from repro.obs import Observability
from repro.obs.trace import ExchangeTracer

from tests.regression.harness import run_wedge

H = 20
ASSOC = 7


def make_traced_channel(sha1, rng, config):
    """An obs-instrumented signer/verifier pair over one chain set."""
    channel = CanonicalChannel(
        rng, config, relays=0, obs=Observability(), assoc_id=ASSOC
    )
    return channel.signer, channel.verifier, channel.obs


def start_exchange(signer, verifier, now=0.0, message=b"payload"):
    """Submit one message and run the S1/A1 interlock at ``now``."""
    signer.submit(message)
    s2s, _ = CanonicalChannel.around(signer, verifier, H).start(now)
    return [decode_packet(raw, H) for raw in s2s]


class TestDamperSequence:
    """Signer-side token bucket + exponential suppression windows."""

    def damper_config(self):
        return ChannelConfig(
            mode=Mode.BASE,
            batch_size=1,
            reliability=ReliabilityMode.RELIABLE,
            retransmit_timeout_s=1.0,
            adaptive_rto=False,  # fixed RTO: exact token-refill arithmetic
        )

    def nack_for(self, signer, verifier):
        s2s = start_exchange(signer, verifier)
        damaged = s2s[0]
        damaged.message = b"corrupted"
        a2_raw = verifier.handle_s2(damaged, 0.0)
        assert a2_raw is not None
        nack = decode_packet(a2_raw, H)
        assert nack.verdicts[0].is_ack is False
        return nack

    def test_bucket_drains_then_exact_suppression_event(self, sha1, rng):
        signer, verifier, obs = make_traced_channel(
            sha1, rng, self.damper_config()
        )
        nack = self.nack_for(signer, verifier)
        # Replay the authentic nack with no time passing: the bucket
        # admits exactly NACK_BUCKET instant retransmits, then the
        # damper engages on the next one.
        for _ in range(NACK_BUCKET):
            assert signer.handle_a2(nack, 0.0)  # retransmitted S2
        (exchange,) = signer._exchanges.values()
        deadline_before = exchange.deadline
        assert signer.handle_a2(nack, 0.0) == []  # suppressed
        assert exchange.deadline == deadline_before  # timeout path live
        assert signer.stats.retransmits_nack == NACK_BUCKET
        assert signer.stats.nack_suppressed == 1
        expected = [("signer", K.RETRANSMIT)] * NACK_BUCKET
        expected.append(("signer", K.NACK_SUPPRESSED))
        assert obs.tracer.sequence({K.RETRANSMIT, K.NACK_SUPPRESSED}) == expected
        assert obs.registry.snapshot()["resilience.nack.suppressed"] == 1

    def test_refilled_token_reopens_repair(self, sha1, rng):
        signer, verifier, obs = make_traced_channel(
            sha1, rng, self.damper_config()
        )
        nack = self.nack_for(signer, verifier)
        for _ in range(NACK_BUCKET):
            signer.handle_a2(nack, 0.0)
        assert signer.handle_a2(nack, 0.0) == []  # drained: suppressed
        # One RTO refills one token (NACK_REFILL_RTOS=1.0, RTO=1.0):
        # the damper reopens and the nack is honored again.
        out = signer.handle_a2(nack, 1.0)
        assert len(out) == 1
        assert decode_packet(out[0], H).msg_index == 0
        assert signer.stats.nack_suppressed == 1  # no further suppression
        assert obs.tracer.count(K.NACK_SUPPRESSED) == 1

    def test_verifier_answers_only_power_of_two_arrivals(self, sha1, rng):
        signer, verifier, obs = make_traced_channel(
            sha1, rng, self.damper_config()
        )
        s2s = start_exchange(signer, verifier)
        damaged = s2s[0]
        damaged.message = b"corrupted"
        answered = [
            verifier.handle_s2(damaged, 0.0) is not None for _ in range(8)
        ]
        # Arrivals 1, 2, 4, 8 are nacked; 3, 5, 6, 7 are suppressed.
        assert answered == [True, True, False, True, False, False, False, True]
        assert verifier.nacks_suppressed == 4
        assert obs.tracer.count(K.NACK_SUPPRESSED, node="verifier") == 4
        assert obs.registry.snapshot()["verifier.nacks_suppressed"] == 4


class TestEscapeHatchSequence:
    """K at-ceiling timeouts -> probe -> recovery or terminal failure."""

    def hatch_config(self):
        return ChannelConfig(
            mode=Mode.BASE,
            batch_size=1,
            reliability=ReliabilityMode.RELIABLE,
            retransmit_timeout_s=0.5,
            adaptive_rto=True,
            backoff_jitter=0.0,  # exact deadlines
            rto_max_s=2.0,
            max_retries=20,
        )

    HATCH_KINDS = {K.BACKOFF, K.RTO_PROBE, K.PROBE_RECOVERY, K.EXCHANGE_FAILED}

    def wedge_to_probe(self, sha1, rng):
        """Drive an exchange to its first escape-hatch probe at t=6.0.

        The A1 lands at 0.5 (RTO seeds to 1.5); every A2 is then lost.
        Timeouts at 2.0 and 4.0 back the RTO off to its 2.0 ceiling;
        the timeouts at 4.0 and 6.0 are the K=2 consecutive at-ceiling
        strikes, so the 6.0 poll sends the probe instead of the batch.
        """
        signer, verifier, obs = make_traced_channel(
            sha1, rng, self.hatch_config()
        )
        signer.submit(b"payload")
        s1 = decode_packet(signer.poll(0.0)[0], H)
        a1 = decode_packet(verifier.handle_s1(s1, 0.5), H)
        signer.handle_a1(a1, 0.5)
        signer.poll(2.0)  # timeout 1: backoff 1.5 -> 2.0 (now pinned)
        signer.poll(4.0)  # timeout 2: at ceiling, streak 1
        out = signer.poll(6.0)  # timeout 3: streak 2 = K -> probe
        assert len(out) == 1  # the bare S1, not the batch
        assert decode_packet(out[0], H).seq == s1.seq
        return signer, a1, obs

    def test_probe_fires_after_k_ceiling_timeouts(self, sha1, rng):
        signer, _, obs = self.wedge_to_probe(sha1, rng)
        assert signer.stats.escape_probes == 1
        assert signer.max_rto_streak_peak == RTO_PROBE_AFTER
        assert obs.tracer.sequence(self.HATCH_KINDS) == [
            ("signer", K.BACKOFF),
            ("signer", K.BACKOFF),
            ("signer", K.RTO_PROBE),
        ]
        assert obs.registry.snapshot()["resilience.rto.probes"] == 1

    def test_repeated_a1_recovers_and_reseeds_rto(self, sha1, rng):
        signer, a1, obs = self.wedge_to_probe(sha1, rng)
        assert signer.rtt.rto == signer.config.rto_max_s  # pinned
        # The verifier repeats the identical A1 for a retransmitted S1;
        # it answers the probe, reseeds the estimator from the probe
        # round trip, and resumes S2 repair at the measured timeout.
        out = signer.handle_a1(a1, 6.5)
        assert len(out) == 1  # the S2 batch goes back out
        assert signer.stats.probe_recoveries == 1
        assert signer.rtt.rto < signer.config.rto_max_s  # collapsed
        assert signer.rtt.srtt == pytest.approx(0.5)  # probe RTT sample
        (exchange,) = signer._exchanges.values()
        assert not exchange.probing and exchange.at_max_streak == 0
        assert obs.tracer.sequence(self.HATCH_KINDS) == [
            ("signer", K.BACKOFF),
            ("signer", K.BACKOFF),
            ("signer", K.RTO_PROBE),
            ("signer", K.PROBE_RECOVERY),
        ]
        assert obs.registry.snapshot()["resilience.rto.probe_recoveries"] == 1

    def test_unanswered_probes_fail_with_rto_escape(self, sha1, rng):
        signer, _, obs = self.wedge_to_probe(sha1, rng)
        signer.poll(8.0)  # probe 2 of 2
        signer.poll(10.0)  # budget exhausted: terminal failure
        failures = signer.drain_failures()
        assert len(failures) == 1
        assert failures[0].reason == "rto-escape"
        assert obs.tracer.sequence(self.HATCH_KINDS) == [
            ("signer", K.BACKOFF),
            ("signer", K.BACKOFF),
            ("signer", K.RTO_PROBE),
            ("signer", K.RTO_PROBE),
            ("signer", K.EXCHANGE_FAILED),
        ]
        (failed,) = [
            e for e in obs.tracer.events if e.kind is K.EXCHANGE_FAILED
        ]
        assert "rto-escape" in failed.info

    def test_second_stuck_episode_fails_without_reprobing(self, sha1, rng):
        # Probe answered, but the exchange makes no progress before the
        # RTO pins again: the unchanged (state, acked) marker proves it
        # structurally stuck, so the second episode fails terminally
        # instead of probing forever.
        signer, a1, obs = self.wedge_to_probe(sha1, rng)
        signer.handle_a1(a1, 6.5)  # recovery: RTO reseeds to 1.5
        signer.poll(8.0)  # timeout: backoff 1.5 -> 2.0 (pinned again)
        signer.poll(10.0)  # at ceiling, streak 1
        signer.poll(12.0)  # streak 2 = K, marker unchanged -> fail
        failures = signer.drain_failures()
        assert len(failures) == 1
        assert failures[0].reason == "rto-escape"
        assert obs.tracer.count(K.RTO_PROBE) == 1  # episode 1 only
        assert obs.tracer.sequence(self.HATCH_KINDS)[-1] == (
            "signer",
            K.EXCHANGE_FAILED,
        )


class TestSequencesUnderLoss:
    """The same signatures hold on the lossy wedge-corpus scenarios."""

    @pytest.fixture(scope="class")
    def wedge_trace(self):
        # The relay-poisoned 3-hop wedge seed: probes must fire.
        obs = Observability(tracer=ExchangeTracer(max_events=400_000))
        run = run_wedge(seed=6, mode=Mode.BASE, batch=1, hops=3, obs=obs)
        return obs, run

    @pytest.fixture(scope="class")
    def storm_trace(self):
        # The 1-hop nack-storm seed: the damper must engage.
        obs = Observability(tracer=ExchangeTracer(max_events=400_000))
        run = run_wedge(seed=1, mode=Mode.BASE, batch=1, hops=1, obs=obs)
        return obs, run

    def test_wedge_run_terminates_with_probes(self, wedge_trace):
        obs, run = wedge_trace
        assert run.done
        assert obs.tracer.dropped == 0
        assert obs.tracer.count(K.RTO_PROBE, node="s") > 0
        snap = obs.registry.snapshot()
        assert snap["resilience.rto.probes"] == obs.tracer.count(K.RTO_PROBE)

    def test_every_probe_recovery_follows_a_probe(self, wedge_trace):
        obs, _ = wedge_trace
        probed: set[tuple[int, int]] = set()
        for event in obs.tracer.events:
            key = (event.assoc_id, event.seq)
            if event.kind is K.RTO_PROBE:
                probed.add(key)
            elif event.kind is K.PROBE_RECOVERY:
                assert key in probed, (
                    f"PROBE_RECOVERY for {key} with no prior RTO_PROBE"
                )

    def test_rto_escape_failures_are_traced(self, wedge_trace):
        obs, run = wedge_trace
        escaped = [
            e
            for e in obs.tracer.events
            if e.kind is K.EXCHANGE_FAILED and "rto-escape" in e.info
        ]
        assert bool(escaped) == ("rto-escape" in run.failure_reasons)

    def test_storm_run_suppresses_nacks(self, storm_trace):
        obs, run = storm_trace
        assert run.done
        suppressed = obs.tracer.count(K.NACK_SUPPRESSED)
        assert suppressed > 0
        snap = obs.registry.snapshot()
        counted = snap.get("resilience.nack.suppressed", 0) + snap.get(
            "verifier.nacks_suppressed", 0
        )
        assert counted == suppressed
        # The damper's whole point: nack-provoked retransmits stay
        # bounded instead of storming.
        assert run.signer_stats.retransmits_nack <= 24
