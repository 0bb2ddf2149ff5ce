"""Relay crash journal: snapshot/restore, re-anchoring, tombstones (§13).

The journal must be *compact* (anchors and digests, not buffers),
*faithful* (a restarted relay re-anchors only the exact S1 it committed
to pre-crash), and *non-censoring* (tombstones and eviction ledgers
survive the restart, and recovering exchanges degrade to pass-through
rather than being dropped — even under ``strict`` configuration, where
a state-lost relay would black-hole everything).
"""

import json

import pytest

from repro.canonical import CanonicalChannel
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import decode_packet
from repro.core.relay import RelayConfig, RelayEngine
from repro.core.signer import ChannelConfig
from repro.crypto.hashes import get_hash

H = 20
ASSOC = 77

STRICT = RelayConfig(strict=True, forward_unknown=False)


class Harness(CanonicalChannel):
    """Signer, verifier, and a crashable strict relay, driven by hand."""

    def __init__(self, sha1, rng, config=None, relay_config=STRICT):
        if config is None:
            config = ChannelConfig(reliability=ReliabilityMode.RELIABLE)
        super().__init__(rng, config, relay_config=relay_config, assoc_id=ASSOC)
        self.relay_config = relay_config

    def s_to_v(self, raw, now=0.0):
        return self.relay.handle(raw, "s", "v", now)

    def v_to_s(self, raw, now=0.0):
        return self.relay.handle(raw, "v", "s", now)

    def crash_restart(self, now=0.0, tamper=None):
        """Snapshot, round-trip through JSON, and restore the relay.

        The JSON round-trip is load-bearing: it proves the journal is
        exactly what a real relay could fsync and read back.
        """
        journal = json.loads(json.dumps(self.relay.snapshot()))
        if tamper is not None:
            tamper(journal)
        self.relay = RelayEngine.restore(
            get_hash("sha1"), journal, config=self.relay_config, now=now
        )
        return journal

    def open_exchange(self, messages, now=0.0, through_a1=False):
        """Send the S1 (and optionally the A1) through the relay."""
        for m in messages:
            self.signer.submit(m)
        s1_raw = self.signer.poll(now)[0]
        assert self.s_to_v(s1_raw, now).forward
        a1_raw = self.verifier.handle_s1(decode_packet(s1_raw, H), now)
        if through_a1:
            assert self.v_to_s(a1_raw, now).forward
        return s1_raw, a1_raw

    def finish_exchange(self, a1_raw, now=0.0):
        """Drive S2/A2 to completion; returns delivered messages."""
        s2_raws = self.signer.handle_a1(decode_packet(a1_raw, H), now)
        delivered, _ = self.finish(s2_raws, now)
        return [m.message for m in delivered]


class TestJournalFormat:
    def test_snapshot_is_json_serializable(self, sha1, rng):
        harness = Harness(sha1, rng)
        harness.open_exchange([b"m"], through_a1=True)
        journal = harness.relay.snapshot()
        assert json.loads(json.dumps(journal)) == journal
        assert journal["format"] == 1

    def test_journal_is_compact_not_full_buffers(self, sha1, rng):
        """Anchors + digest per exchange — never the pre-sig buffers."""
        config = ChannelConfig(
            mode=Mode.CUMULATIVE,
            batch_size=8,
            reliability=ReliabilityMode.RELIABLE,
        )
        harness = Harness(sha1, rng, config)
        harness.open_exchange([b"m%d" % i for i in range(8)])
        channel = harness.relay.snapshot()["associations"][0]["forward"]
        (record,) = channel["exchanges"]
        # 8 buffered pre-signatures live in the relay (8 * H bytes);
        # the journal pins them with one digest.
        assert harness.relay.buffered_bytes == 8 * H
        assert len(bytes.fromhex(record["s1_digest"])) == H
        assert "pre_signatures" not in record
        flat = json.dumps(record)
        assert len(flat) < 8 * H * 2  # smaller than the hex of the buffers

    def test_unknown_format_rejected(self, sha1, rng):
        harness = Harness(sha1, rng)
        journal = harness.relay.snapshot()
        journal["format"] = 99
        with pytest.raises(ValueError, match="journal format"):
            RelayEngine.restore(get_hash("sha1"), journal)


class TestReanchoring:
    def test_retransmitted_s1_reanchors_and_exchange_completes(self, sha1, rng):
        harness = Harness(sha1, rng)
        s1_raw, a1_raw = harness.open_exchange([b"payload"], through_a1=True)
        harness.crash_restart(now=1.0)
        decision = harness.s_to_v(s1_raw, 1.0)
        assert decision.forward and decision.verified
        assert decision.reason == "s1-reanchored"
        assert harness.relay.stats["s1-reanchored"] == 1
        # The re-anchored exchange verifies the rest of the interlock.
        assert harness.finish_exchange(a1_raw, now=1.0) == [b"payload"]

    def test_journaled_a1_is_rejournaled_exactly(self, sha1, rng):
        """The A1 the pre-crash relay verified is accepted verbatim."""
        harness = Harness(sha1, rng)
        s1_raw, a1_raw = harness.open_exchange([b"m"], through_a1=True)
        harness.crash_restart(now=1.0)
        assert harness.s_to_v(s1_raw, 1.0).reason == "s1-reanchored"
        decision = harness.v_to_s(a1_raw, 1.0)
        assert decision.forward and decision.verified
        assert decision.reason == "a1-rejournaled"

    def test_mismatched_s1_dropped_after_restart(self, sha1, rng):
        """Only the exact committed S1 re-anchors; a forgery claiming
        the journaled seq is dropped, not passed through."""
        harness = Harness(sha1, rng)
        s1_raw, _ = harness.open_exchange([b"m"])
        harness.crash_restart(now=1.0)
        packet = decode_packet(s1_raw, H)
        packet.pre_signatures = [b"\x5a" * H]
        decision = harness.s_to_v(packet.encode(), 1.0)
        assert not decision.forward
        assert decision.reason == "s1-journal-mismatch"
        # The genuine retransmission still re-anchors afterwards.
        assert harness.s_to_v(s1_raw, 1.0).reason == "s1-reanchored"

    def test_tampered_journal_rejects_genuine_s1(self, sha1, rng):
        """A corrupted journal fails closed: nothing re-anchors."""
        harness = Harness(sha1, rng)
        s1_raw, _ = harness.open_exchange([b"m"])

        def tamper(journal):
            record = journal["associations"][0]["forward"]["exchanges"][0]
            record["s1_digest"] = "00" * H

        harness.crash_restart(now=1.0, tamper=tamper)
        decision = harness.s_to_v(s1_raw, 1.0)
        assert not decision.forward
        assert decision.reason == "s1-journal-mismatch"


class TestPassthroughUntilAnchored:
    def test_s2_of_recovering_exchange_passes_through_unverified(
        self, sha1, rng
    ):
        harness = Harness(sha1, rng)
        _, a1_raw = harness.open_exchange([b"m"], through_a1=True)
        harness.crash_restart(now=1.0)
        s2_raws = harness.signer.handle_a1(decode_packet(a1_raw, H), 1.0)
        decision = harness.s_to_v(s2_raws[0], 1.0)
        assert decision.forward and not decision.verified
        assert decision.reason == "s2-recovering"
        assert harness.relay.stats["s2-recovering"] == 1

    def test_strict_relay_without_journal_black_holes(self, sha1, rng):
        """The degraded mode is the journal's doing: a state-lost strict
        relay drops the same traffic (the pre-§13 failure mode)."""
        harness = Harness(sha1, rng)
        _, a1_raw = harness.open_exchange([b"m"], through_a1=True)
        harness.relay = RelayEngine(get_hash("sha1"), STRICT)  # no journal
        s2_raws = harness.signer.handle_a1(decode_packet(a1_raw, H), 1.0)
        assert not harness.s_to_v(s2_raws[0], 1.0).forward

    def test_recovering_exchange_expires_to_tombstone(self, sha1, rng):
        """Never-re-anchored records TTL out into the eviction ledger —
        eviction-never-censors covers the recovery queue too."""
        harness = Harness(sha1, rng)
        _, a1_raw = harness.open_exchange([b"m"], through_a1=True)
        harness.crash_restart(now=1.0)
        ttl = STRICT.exchange_ttl_s
        s2_raws = harness.signer.handle_a1(decode_packet(a1_raw, H), 1.0)
        late = 1.0 + ttl + 1.0
        decision = harness.s_to_v(s2_raws[0], late)
        assert decision.forward and not decision.verified
        assert decision.reason == "s2-evicted-unverified"


class TestTombstonesAcrossRestart:
    def _evict_exchange(self, harness, now):
        """TTL-evict the open exchange, returning its raw S1."""
        s1_raw, _ = harness.open_exchange([b"m"], now=now)
        channel = harness.relay._associations[ASSOC].forward_channel
        channel.prune(now + STRICT.exchange_ttl_s + 1.0)
        return s1_raw

    def test_eviction_ledger_survives_restart(self, sha1, rng):
        harness = Harness(sha1, rng)
        s1_raw = self._evict_exchange(harness, 0.0)
        journal = harness.crash_restart(now=40.0)
        channel = journal["associations"][0]["forward"]
        assert channel["evicted"] == [decode_packet(s1_raw, H).seq]
        # The restarted relay still never censors the evicted exchange:
        # its consumed-element S1 retransmission forwards unverified.
        decision = harness.s_to_v(s1_raw, 40.0)
        assert decision.forward and not decision.verified
        assert decision.reason == "s1-evicted-unverified"

    def test_restart_does_not_resurrect_evicted_exchange(self, sha1, rng):
        """An evicted exchange stays evicted: no buffered state, no
        recovery record — exactly the pre-crash degraded semantics."""
        harness = Harness(sha1, rng)
        s1_raw = self._evict_exchange(harness, 0.0)
        harness.crash_restart(now=40.0)
        seq = decode_packet(s1_raw, H).seq
        channel = harness.relay._associations[ASSOC].forward_channel
        assert seq not in channel.exchanges
        assert seq not in channel.recovering
        assert seq in channel.evicted
        harness.s_to_v(s1_raw, 40.0)
        # Forwarding the tombstoned retransmission must not have
        # rebuilt verified state either.
        assert seq not in channel.exchanges

    def test_double_crash_rejournal_keeps_recovering_records(self, sha1, rng):
        """Crash-during-restart: a second snapshot taken before any
        re-anchor carries the recovery queue forward intact."""
        harness = Harness(sha1, rng)
        s1_raw, a1_raw = harness.open_exchange([b"m"], through_a1=True)
        harness.crash_restart(now=1.0)
        harness.crash_restart(now=2.0)  # again, mid-recovery
        decision = harness.s_to_v(s1_raw, 2.0)
        assert decision.forward and decision.verified
        assert decision.reason == "s1-reanchored"
        assert harness.finish_exchange(a1_raw, now=2.0) == [b"m"]

    def test_s1_allowance_survives_restart(self, sha1, rng):
        """The anti-flooding allowance is state too: a restart must not
        reopen the initial-allowance window the exchanges had grown."""
        harness = Harness(sha1, rng)
        harness.open_exchange([b"m"], through_a1=True)
        channel = harness.relay._associations[ASSOC].forward_channel
        grown = channel.s1_allowance
        assert grown > STRICT.initial_s1_allowance
        harness.crash_restart(now=1.0)
        restored = harness.relay._associations[ASSOC].forward_channel
        assert restored.s1_allowance == grown


class TestA2KeyAcrossRestart:
    @pytest.mark.parametrize("mode", [Mode.CUMULATIVE, Mode.MERKLE])
    def test_a2s_after_restart_verify_against_journaled_key(
        self, sha1, rng, mode
    ):
        """A crash after 4 of 8 S2/A2 pairs: the A2 key pinned pre-crash
        is journaled, so the genuine A2s of the other 4 still verify."""
        config = ChannelConfig(
            mode=mode, batch_size=8, reliability=ReliabilityMode.RELIABLE
        )
        harness = Harness(sha1, rng, config)
        messages = [b"m%d" % i for i in range(8)]
        s1_raw, a1_raw = harness.open_exchange(messages, through_a1=True)
        s2_raws = harness.signer.handle_a1(decode_packet(a1_raw, H), 0.0)
        assert len(s2_raws) == 8

        def s2_a2(s2_raw, now):
            assert harness.s_to_v(s2_raw, now).reason == "s2-ok"
            a2_raw = harness.verifier.handle_s2(decode_packet(s2_raw, H), now)
            decision = harness.v_to_s(a2_raw, now)
            harness.signer.handle_a2(decode_packet(a2_raw, H), now)
            return decision.reason

        assert [s2_a2(raw, 0.0) for raw in s2_raws[:4]] == ["a2-ok"] * 4
        harness.crash_restart(now=1.0)
        assert harness.s_to_v(s1_raw, 1.0).reason == "s1-reanchored"
        assert harness.v_to_s(a1_raw, 1.0).reason == "a1-rejournaled"
        assert [s2_a2(raw, 1.0) for raw in s2_raws[4:]] == ["a2-ok"] * 4
        reports = harness.signer.drain_reports()
        assert sorted(r.message for r in reports if r.delivered) == messages
