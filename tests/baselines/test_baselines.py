"""Baseline schemes: functionality plus the paper's feature matrix."""

import pytest

from repro.baselines.base import feature_matrix
from repro.baselines.guy_fawkes import GuyFawkesSigner, GuyFawkesVerifier
from repro.baselines.hmac_e2e import HmacEndToEnd
from repro.baselines.lhap import LhapNode
from repro.baselines.pk_sign import PkSigner, PkVerifier
from repro.baselines.tesla import (
    TeslaSchedule,
    TeslaSigner,
    TeslaVerifier,
    minimum_interval_for_path,
    verification_latency,
)
from repro.crypto.drbg import DRBG
from repro.crypto.signatures import EcdsaScheme


class TestHmacE2E:
    def make_pair(self, sha1):
        key = b"shared-secret-key"
        return HmacEndToEnd(sha1, key), HmacEndToEnd(sha1, key)

    def test_round_trip(self, sha1):
        sender, receiver = self.make_pair(sha1)
        packet = sender.protect(b"payload")
        result = receiver.verify(packet)
        assert result is not None and result.message == b"payload"

    def test_tampering_detected(self, sha1):
        sender, receiver = self.make_pair(sha1)
        packet = bytearray(sender.protect(b"payload"))
        packet[6] ^= 0x01
        assert receiver.verify(bytes(packet)) is None
        assert receiver.rejected == 1

    def test_replay_detected(self, sha1):
        sender, receiver = self.make_pair(sha1)
        packet = sender.protect(b"payload")
        assert receiver.verify(packet) is not None
        assert receiver.verify(packet) is None

    def test_truncated_packet(self, sha1):
        _, receiver = self.make_pair(sha1)
        assert receiver.verify(b"short") is None

    def test_wrong_key_rejected(self, sha1):
        sender = HmacEndToEnd(sha1, b"key-one")
        receiver = HmacEndToEnd(sha1, b"key-two")
        assert receiver.verify(sender.protect(b"m")) is None

    def test_relays_cannot_verify(self):
        assert HmacEndToEnd.relay_can_verify() is False

    def test_empty_key_rejected(self, sha1):
        with pytest.raises(ValueError):
            HmacEndToEnd(sha1, b"")


class TestPkSign:
    @pytest.fixture(scope="class")
    def pair(self):
        identity = EcdsaScheme.generate(DRBG(b"pk-baseline"))
        signer = PkSigner(identity)
        return signer, PkVerifier(signer.public_blob())

    def test_round_trip(self, pair):
        signer, verifier = pair
        result = verifier.verify(signer.protect(b"data"))
        assert result is not None and result.message == b"data"

    def test_tampering_detected(self, pair):
        signer, verifier = pair
        packet = bytearray(signer.protect(b"data"))
        packet[5] ^= 0xFF
        assert verifier.verify(bytes(packet)) is None

    def test_replay_detected(self, pair):
        signer, verifier = pair
        packet = signer.protect(b"fresh")
        assert verifier.verify(packet) is not None
        assert verifier.verify(packet) is None

    def test_any_third_party_can_verify(self, pair):
        # The relay-verifiability property: a verifier built only from
        # the public blob accepts the traffic.
        signer, _ = pair
        relay_view = PkVerifier(signer.public_blob())
        assert relay_view.verify(signer.protect(b"transit")) is not None
        assert PkVerifier.relay_can_verify() is True

    def test_garbage_rejected(self, pair):
        _, verifier = pair
        assert verifier.verify(b"\x00\x01") is None


class TestTesla:
    def make(self, sha1, interval=1.0, lag=2, length=64, skew=0.0):
        schedule = TeslaSchedule(
            start_time=0.0, interval_s=interval, disclosure_lag=lag, chain_length=length
        )
        signer = TeslaSigner(sha1, DRBG(b"tesla").random_bytes(20), schedule)
        verifier = TeslaVerifier(sha1, signer.anchor, schedule, max_clock_skew_s=skew)
        return signer, verifier

    def test_verification_after_disclosure(self, sha1):
        signer, verifier = self.make(sha1)
        packet = signer.protect(b"m0", now=0.5)  # interval 0
        verifier.handle_packet(packet, now=0.6)
        assert verifier.verified == []  # not yet verifiable
        assert verifier.pending_count == 1
        # A later packet (interval 2) discloses interval 0's key.
        later = signer.protect(b"m2", now=2.5)
        verifier.handle_packet(later, now=2.6)
        assert [v.message for v in verifier.verified] == [b"m0"]

    def test_late_packet_dropped_by_security_condition(self, sha1):
        signer, verifier = self.make(sha1)
        packet = signer.protect(b"m0", now=0.5)
        # Arrives after the key for interval 0 could be public (t >= 2.0).
        verifier.handle_packet(packet, now=2.5)
        assert verifier.dropped_unsafe == 1
        assert verifier.pending_count == 0

    def test_security_condition_exact_boundary(self, sha1):
        """The drop condition is ``>=``, pinned at the exact instant.

        With interval 1.0 and lag 2, a packet MACed in interval 0 is
        safe up to (not including) t=2.0 — at t=2.0 sharp the sender
        *could* already have disclosed K_0, so the verifier must assume
        the worst and drop. One tick earlier it buffers.
        """
        signer, verifier = self.make(sha1)
        early = signer.protect(b"m0", now=0.5)
        verifier.handle_packet(early, now=1.9999)  # strictly inside
        assert verifier.dropped_unsafe == 0
        assert verifier.pending_count == 1
        late = signer.protect(b"m0-again", now=0.6)
        verifier.handle_packet(late, now=2.0)  # exactly on the boundary
        assert verifier.dropped_unsafe == 1
        assert verifier.pending_count == 1  # only the early one buffered
        # The buffered packet still verifies once the key arrives.
        verifier.handle_disclosure_packet(signer.idle_disclosure(now=2.5))
        assert [v.message for v in verifier.verified] == [b"m0"]

    def test_clock_skew_tightens_the_condition(self, sha1):
        signer, verifier = self.make(sha1, skew=0.5)
        packet = signer.protect(b"m0", now=0.5)
        verifier.handle_packet(packet, now=1.8)  # 1.8 + 0.5 skew >= 2.0
        assert verifier.dropped_unsafe == 1

    def test_idle_disclosure_packets(self, sha1):
        signer, verifier = self.make(sha1)
        data = signer.protect(b"m0", now=0.5)
        verifier.handle_packet(data, now=0.6)
        idle = signer.idle_disclosure(now=2.5)
        assert idle is not None
        verifier.handle_disclosure_packet(idle)
        assert [v.message for v in verifier.verified] == [b"m0"]

    def test_idle_disclosure_before_lag_is_none(self, sha1):
        signer, _ = self.make(sha1)
        assert signer.idle_disclosure(now=0.5) is None

    def test_forged_key_rejected(self, sha1):
        _, verifier = self.make(sha1)
        verifier.handle_key(3, b"\x00" * 20)
        assert verifier.rejected == 1

    def test_tampered_payload_rejected_at_disclosure(self, sha1):
        signer, verifier = self.make(sha1)
        packet = bytearray(signer.protect(b"m0", now=0.5))
        packet[6] ^= 0x01
        verifier.handle_packet(bytes(packet), now=0.6)
        verifier.handle_disclosure_packet(signer.idle_disclosure(now=2.5))
        assert verifier.verified == []
        assert verifier.rejected == 1

    def test_chain_exhaustion(self, sha1):
        signer, _ = self.make(sha1, length=4)
        with pytest.raises(ValueError):
            signer.protect(b"m", now=4.5)

    def test_latency_helpers(self, sha1):
        schedule = TeslaSchedule(0.0, 0.5, 3, 64)
        assert verification_latency(schedule) == 1.5
        assert minimum_interval_for_path(0.2) == 0.4
        with pytest.raises(ValueError):
            minimum_interval_for_path(0)

    def test_interval_before_start_rejected(self, sha1):
        schedule = TeslaSchedule(10.0, 1.0, 2, 64)
        with pytest.raises(ValueError):
            schedule.interval_of(5.0)


class TestGuyFawkes:
    def make(self, sha1):
        signer = GuyFawkesSigner(sha1, DRBG(b"fawkes"))
        verifier = GuyFawkesVerifier(sha1, signer.bootstrap_commitment())
        return signer, verifier

    def test_one_packet_lag_verification(self, sha1):
        signer, verifier = self.make(sha1)
        verifier.handle_packet(signer.protect(b"m0"))
        assert verifier.verified == []
        verifier.handle_packet(signer.protect(b"m1"))
        assert [v.message for v in verifier.verified] == [b"m0"]
        verifier.handle_packet(signer.protect(b"m2"))
        assert [v.message for v in verifier.verified] == [b"m0", b"m1"]

    def test_single_packet_never_verifies_alone(self, sha1):
        """The lag is structural: packet ``i`` carries the key for
        ``i-1``, so a lone packet is unverifiable forever — no amount
        of waiting helps, only the *next* packet does. (This is the
        flush cost the stream pays at end-of-transmission.)"""
        signer, verifier = self.make(sha1)
        verifier.handle_packet(signer.protect(b"only"))
        assert verifier.verified == []
        assert verifier.rejected == 0  # pending, not rejected
        # The follow-up — even an empty flush message — releases it.
        verifier.handle_packet(signer.protect(b""))
        assert [v.message for v in verifier.verified] == [b"only"]

    def test_verification_lags_exactly_one_packet(self, sha1):
        """Message ``i`` verifies at packet ``i+1`` — not later, and
        never at its own packet."""
        signer, verifier = self.make(sha1)
        for i in range(5):
            verifier.handle_packet(signer.protect(b"m%d" % i))
            verified = [v.message for v in verifier.verified]
            assert verified == [b"m%d" % j for j in range(i)]

    def test_loss_desynchronizes_permanently(self, sha1):
        signer, verifier = self.make(sha1)
        verifier.handle_packet(signer.protect(b"m0"))
        signer.protect(b"m1")  # lost in transit
        verifier.handle_packet(signer.protect(b"m2"))
        assert verifier.desynchronized
        # Nothing ever verifies again.
        verifier.handle_packet(signer.protect(b"m3"))
        assert verifier.verified == []
        assert verifier.rejected >= 2

    def test_tampering_detected(self, sha1):
        signer, verifier = self.make(sha1)
        p0 = bytearray(signer.protect(b"m0"))
        p0[6] ^= 0x01
        verifier.handle_packet(bytes(p0))
        verifier.handle_packet(signer.protect(b"m1"))
        assert verifier.verified == []

    def test_wrong_bootstrap_commitment(self, sha1):
        signer, _ = self.make(sha1)
        verifier = GuyFawkesVerifier(sha1, b"\x00" * 20)
        verifier.handle_packet(signer.protect(b"m0"))
        verifier.handle_packet(signer.protect(b"m1"))
        assert verifier.verified == []
        assert verifier.desynchronized


class TestLhap:
    def make_pair(self, sha1, rng):
        a = LhapNode("a", sha1, rng.fork("a"))
        b = LhapNode("b", sha1, rng.fork("b"))
        a.learn_neighbour("b", b.chain.anchor)
        b.learn_neighbour("a", a.chain.anchor)
        return a, b

    def test_token_verification(self, sha1, rng):
        a, b = self.make_pair(sha1, rng)
        message, token = a.attach_token(b"payload")
        assert b.verify_from("a", message, token)

    def test_sequential_tokens(self, sha1, rng):
        a, b = self.make_pair(sha1, rng)
        for i in range(5):
            message, token = a.attach_token(b"p%d" % i)
            assert b.verify_from("a", message, token)

    def test_token_gap_tolerance(self, sha1, rng):
        a, b = self.make_pair(sha1, rng)
        a.attach_token(b"lost1")
        a.attach_token(b"lost2")
        message, token = a.attach_token(b"arrives")
        assert b.verify_from("a", message, token)

    def test_outsider_rejected(self, sha1, rng):
        a, b = self.make_pair(sha1, rng)
        outsider = LhapNode("x", sha1, rng.fork("x"))
        message, token = outsider.attach_token(b"inject")
        assert not b.verify_from("x", message, token)  # unknown neighbour
        assert not b.verify_from("a", message, token)  # wrong chain

    def test_insider_tampering_undetected(self, sha1, rng):
        # THE LHAP GAP (paper Section 2.2): the token does not bind the
        # payload, so a compromised relay can swap the message.
        a, b = self.make_pair(sha1, rng)
        _, token = a.attach_token(b"original")
        assert b.verify_from("a", b"tampered by insider", token)
        assert not LhapNode.protects_against_insiders()

    def test_chain_exhaustion(self, sha1, rng):
        node = LhapNode("n", sha1, rng, chain_length=2)
        node.attach_token(b"1")
        node.attach_token(b"2")
        with pytest.raises(RuntimeError):
            node.attach_token(b"3")


class TestFeatureMatrix:
    def test_alpha_unique_position(self):
        matrix = {p.name: p for p in feature_matrix()}
        alpha = matrix["ALPHA"]
        assert alpha.relay_verifiable and alpha.insider_protection
        assert not alpha.needs_time_sync
        # No baseline matches ALPHA on all three properties without
        # paying public-key costs per packet.
        for name, props in matrix.items():
            if name in ("ALPHA", "PK-SIGN"):
                continue
            assert not (
                props.relay_verifiable
                and props.insider_protection
                and not props.needs_time_sync
            ), name

    def test_pk_sign_is_the_expensive_alternative(self):
        matrix = {p.name: p for p in feature_matrix()}
        assert matrix["PK-SIGN"].sender_pk_ops > 0
        assert matrix["ALPHA"].sender_pk_ops == 0

    def test_new_rows_document_their_windows_honestly(self):
        """The ProMAC and CSM rows must advertise their blind spots —
        the separation grid (tests/security) proves each one is real."""
        matrix = {p.name: p for p in feature_matrix()}
        promac = matrix["PROMAC"]
        assert not promac.relay_verifiable  # shared-key MACs, opaque hops
        assert promac.provisional_window > 0  # accept-then-retract gap
        assert promac.verification_delay == "window"
        csm = matrix["CSM"]
        assert csm.relay_verifiable  # per-link keys: hops do verify
        assert not csm.insider_protection  # ...and can therefore re-MAC
        assert csm.reorder_tolerance == "generation"
        assert matrix["ALPHA"].provisional_window == 0  # nothing to retract
