"""Bootstrapping and the endpoint layer."""

import pytest

from repro.core.bootstrap import (
    ChainSet,
    build_handshake,
    establish_static,
    provision_relays,
    validate_handshake,
)
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.exceptions import AuthenticationError, ProtocolError
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import decode_packet
from repro.core.relay import RelayEngine
from repro.core.signer import ChannelConfig
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import get_hash
from repro.crypto.signatures import EcdsaScheme


def pump(a, b, max_rounds=50, now=0.0):
    """Deliver packets between two endpoints until both go quiet."""
    outbox = []
    out = a.poll(now)
    outbox.extend(("a", dest, data) for dest, data in out.replies)
    out = b.poll(now)
    outbox.extend(("b", dest, data) for dest, data in out.replies)
    events = {"delivered": [], "reports": []}
    rounds = 0
    while outbox and rounds < max_rounds:
        rounds += 1
        batch, outbox = outbox, []
        for sender, dest, data in batch:
            target = b if sender == "a" else a
            src_name = a.name if sender == "a" else b.name
            out = target.on_packet(data, src_name, now)
            tag = "b" if sender == "a" else "a"
            outbox.extend((tag, d2, p2) for d2, p2 in out.replies)
            events["delivered"].extend(out.delivered)
            events["reports"].extend(out.reports)
        now += 0.001
    return events


class TestDynamicHandshake:
    def test_unprotected_handshake_establishes_both_sides(self):
        a = AlphaEndpoint("a", seed=1)
        b = AlphaEndpoint("b", seed=2)
        dest, hs1 = a.connect("b")
        out = b.on_packet(hs1, "a", 0.0)
        assert b.association("a").established
        (peer, hs2), = out.replies
        a.on_packet(hs2, "b", 0.0)
        assert a.association("b").established

    def test_data_flows_after_handshake(self):
        a = AlphaEndpoint("a", seed=1)
        b = AlphaEndpoint("b", seed=2)
        _, hs1 = a.connect("b")
        out = b.on_packet(hs1, "a", 0.0)
        a.on_packet(out.replies[0][1], "b", 0.0)
        a.send("b", b"payload")
        events = pump(a, b)
        assert [m.message for _, m in events["delivered"]] == [b"payload"]

    def test_sends_queued_before_establishment_are_flushed(self):
        a = AlphaEndpoint("a", seed=1)
        b = AlphaEndpoint("b", seed=2)
        a.connect("b")
        a.send("b", b"early")  # association not yet established
        _, hs1 = a.association("b").peer, a.association("b").hs_bytes
        out = b.on_packet(a.association("b").hs_bytes, "a", 0.0)
        a.on_packet(out.replies[0][1], "b", 0.0)
        events = pump(a, b)
        assert [m.message for _, m in events["delivered"]] == [b"early"]

    def test_duplicate_connect_rejected(self):
        a = AlphaEndpoint("a", seed=1)
        a.connect("b")
        with pytest.raises(ProtocolError):
            a.connect("b")

    def test_hs1_retransmission_answered_with_same_hs2(self):
        a = AlphaEndpoint("a", seed=1)
        b = AlphaEndpoint("b", seed=2)
        _, hs1 = a.connect("b")
        first = b.on_packet(hs1, "a", 0.0).replies
        second = b.on_packet(hs1, "a", 0.0).replies
        assert first == second

    def test_hs1_retransmitted_on_timeout(self):
        a = AlphaEndpoint("a", EndpointConfig(retransmit_timeout_s=1.0), seed=1)
        _, hs1 = a.connect("b")
        out = a.poll(2.0)
        assert out.replies == [("b", hs1)]

    def test_flipped_hs1_nonce_bit_costs_one_retry(self):
        """One bit flipped in flight in the first HS1's nonce, for every
        nonce bit. The HS2 echoes the damaged nonce and the initiator
        rejects it; the genuine retry carries another nonce and the same
        anchors, so it draws a fresh HS2 over the same chains."""
        for bit in range(128):
            a = AlphaEndpoint("a", seed=1)
            b = AlphaEndpoint("b", seed=2)
            _, hs1 = a.connect("b")
            damaged = bytearray(hs1)
            damaged[hs1.index(decode_packet(hs1, 20).nonce) + bit // 8] ^= (
                0x80 >> bit % 8
            )
            for _, hs2 in b.on_packet(bytes(damaged), "a", 0.0).replies:
                a.on_packet(hs2, "b", 0.0)
            now = 0.0
            while not a.association("b").established:
                assert now < 2.0, f"bit {bit}: no establishment"
                now += 0.25
                for _, retry in a.poll(now).replies:
                    for _, hs2 in b.on_packet(retry, "a", now).replies:
                        a.on_packet(hs2, "b", now)
            ours, theirs = a.association("b"), b.association("a")
            assert ours.hs_retries == 1, f"bit {bit}"
            for local, remote in ((ours, theirs), (theirs, ours)):
                signature, acknowledgment = remote.chains.anchors
                assert local.verifier.sig_verifier.trusted == signature
                assert local.signer.ack_verifier.trusted == acknowledgment
            a.send("b", b"payload")
            events = pump(a, b, now=now)
            assert [m.message for _, m in events["delivered"]] == [b"payload"]

    def test_flipped_hs1_assoc_id_bit_is_dropped(self):
        """A copy of the answered HS1 with one ``assoc_id`` bit flipped,
        for every bit of the field, after the peer used the answer. It
        names the anchors this responder already answered, so it
        installs nothing: the association stays, and the next message in
        each direction is delivered."""
        config = EndpointConfig(chain_length=128)
        for bit in range(64):
            a = AlphaEndpoint("a", config, seed=1)
            b = AlphaEndpoint("b", config, seed=2)
            _, hs1 = a.connect("b")
            out = b.on_packet(hs1, "a", 0.0)
            a.on_packet(out.replies[0][1], "b", 0.0)
            a.send("b", b"first")
            assert [m.message for _, m in pump(a, b)["delivered"]] == [b"first"]
            installed = b.association("a")
            packet = decode_packet(hs1, 20)
            packet.assoc_id ^= 1 << bit
            assert b.on_packet(packet.encode(), "a", 0.0).replies == [], bit
            assert b.association("a") is installed and not installed.retired
            assert b.peers == ["a"] and len(b._by_id) == 1, bit
            a.send("b", b"to-b")
            b.send("a", b"to-a")
            events = pump(a, b)
            delivered = sorted(m.message for _, m in events["delivered"])
            assert delivered == [b"to-a", b"to-b"], f"bit {bit}"

    def test_flipped_first_hs1_assoc_id_bit_costs_one_retry(self):
        """The first HS1 arrives with one ``assoc_id`` bit flipped, for
        every bit of the field. The responder answers under the damaged
        id and the initiator drops that HS2; nobody used the answer, so
        the genuine retry supersedes it and the pair establishes under
        the initiator's id, delivering in both directions."""
        for bit in range(64):
            a = AlphaEndpoint("a", seed=1)
            b = AlphaEndpoint("b", seed=2)
            _, hs1 = a.connect("b")
            packet = decode_packet(hs1, 20)
            packet.assoc_id ^= 1 << bit
            for _, hs2 in b.on_packet(packet.encode(), "a", 0.0).replies:
                a.on_packet(hs2, "b", 0.0)
            now = 0.0
            while not a.association("b").established:
                assert now < 2.0, f"bit {bit}: no establishment"
                now += 0.25
                for _, retry in a.poll(now).replies:
                    for _, hs2 in b.on_packet(retry, "a", now).replies:
                        a.on_packet(hs2, "b", now)
            ours, theirs = a.association("b"), b.association("a")
            assert ours.hs_retries == 1, f"bit {bit}"
            assert theirs.assoc_id == ours.assoc_id != packet.assoc_id, bit
            a.send("b", b"to-b")
            b.send("a", b"to-a")
            events = pump(a, b, now=now)
            delivered = sorted(m.message for _, m in events["delivered"])
            assert delivered == [b"to-a", b"to-b"], f"bit {bit}"

    def test_differing_hs1_naming_other_chains_is_dropped(self):
        a = AlphaEndpoint("a", seed=1)
        b = AlphaEndpoint("b", seed=2)
        _, hs1 = a.connect("b")
        b.on_packet(hs1, "a", 0.0)
        installed = b.association("a").verifier.sig_verifier.trusted
        packet = decode_packet(hs1, 20)
        packet.nonce, packet.sig_anchor = bytes(16), bytes(20)
        assert b.on_packet(packet.encode(), "a", 0.0).replies == []
        assert b.association("a").verifier.sig_verifier.trusted == installed

    def test_packets_from_wrong_peer_ignored(self):
        a = AlphaEndpoint("a", seed=1)
        b = AlphaEndpoint("b", seed=2)
        _, hs1 = a.connect("b")
        out = b.on_packet(hs1, "a", 0.0)
        hs2 = out.replies[0][1]
        # Mallory replays b's HS2 claiming to be "c": a must ignore it.
        a.on_packet(hs2, "c", 0.0)
        assert not a.association("b").established
        a.on_packet(hs2, "b", 0.0)
        assert a.association("b").established

    def test_garbage_packet_ignored(self):
        a = AlphaEndpoint("a", seed=1)
        out = a.on_packet(b"garbage", "b", 0.0)
        assert out.replies == []


class TestProtectedHandshake:
    @pytest.fixture(scope="class")
    def identities(self):
        return (
            EcdsaScheme.generate(DRBG(b"id-a")),
            EcdsaScheme.generate(DRBG(b"id-b")),
        )

    def test_protected_handshake_succeeds(self, identities):
        id_a, id_b = identities
        config = EndpointConfig(require_protected_handshake=True)
        a = AlphaEndpoint("a", config, seed=1, identity=id_a)
        b = AlphaEndpoint("b", config, seed=2, identity=id_b)
        _, hs1 = a.connect("b")
        out = b.on_packet(hs1, "a", 0.0)
        assert b.association("a").established
        a.on_packet(out.replies[0][1], "b", 0.0)
        assert a.association("b").established

    def test_unprotected_hs1_rejected_when_required(self, identities):
        _, id_b = identities
        a = AlphaEndpoint("a", seed=1)  # no identity
        config = EndpointConfig(require_protected_handshake=True)
        b = AlphaEndpoint("b", config, seed=2, identity=id_b)
        _, hs1 = a.connect("b")
        out = b.on_packet(hs1, "a", 0.0)
        assert out.replies == []
        with pytest.raises(ProtocolError):
            b.association("a")

    def test_tampered_anchor_rejected(self, identities):
        id_a, _ = identities
        rng = DRBG(5)
        chains = ChainSet.create(get_hash("sha1"), rng, 64)
        packet = build_handshake(1, chains, "sha1", rng, False, identity=id_a)
        packet.sig_anchor = b"\x00" * 20  # tamper after signing
        with pytest.raises(AuthenticationError):
            validate_handshake(packet, expect_protected=True)

    def test_missing_signature_rejected(self):
        rng = DRBG(6)
        chains = ChainSet.create(get_hash("sha1"), rng, 64)
        packet = build_handshake(1, chains, "sha1", rng, False)
        with pytest.raises(AuthenticationError):
            validate_handshake(packet, expect_protected=True)

    def test_nonce_echo_required(self):
        rng = DRBG(7)
        chains = ChainSet.create(get_hash("sha1"), rng, 64)
        packet = build_handshake(
            1, chains, "sha1", rng, True, peer_nonce=b"x" * 16
        )
        with pytest.raises(ProtocolError):
            validate_handshake(packet, expected_peer_nonce=b"y" * 16)
        anchors = validate_handshake(packet, expected_peer_nonce=b"x" * 16)
        assert anchors.sig_anchor.index == 64


class TestStaticBootstrap:
    def test_static_establishment(self):
        a = AlphaEndpoint("a", seed=1)
        b = AlphaEndpoint("b", seed=2)
        assoc_id = establish_static(a, b)
        assert a.association("b").established
        assert b.association("a").established
        assert a.association_by_id(assoc_id) is a.association("b")
        a.send("b", b"pre-provisioned")
        events = pump(a, b)
        assert [m.message for _, m in events["delivered"]] == [b"pre-provisioned"]

    def test_relay_provisioning(self):
        a = AlphaEndpoint("a", seed=1)
        b = AlphaEndpoint("b", seed=2)
        assoc_id = establish_static(a, b)
        relay = RelayEngine(get_hash("sha1"))
        provision_relays([relay], a, b, assoc_id)
        assert relay.association_count() == 1
        # The relay must verify real traffic of this association.
        a.send("b", b"m")
        out = a.poll(0.0)
        s1 = out.replies[0][1]
        assert relay.handle(s1, "a", "b", 0.0).verified


class TestEndpointBehaviour:
    def test_duplex_traffic(self):
        a = AlphaEndpoint("a", seed=1)
        b = AlphaEndpoint("b", seed=2)
        establish_static(a, b)
        a.send("b", b"ping")
        b.send("a", b"pong")
        events = pump(a, b)
        got = sorted(m.message for _, m in events["delivered"])
        assert got == [b"ping", b"pong"]

    def test_reliable_reports(self):
        config = EndpointConfig(reliability=ReliabilityMode.RELIABLE)
        a = AlphaEndpoint("a", config, seed=1)
        b = AlphaEndpoint("b", config, seed=2)
        establish_static(a, b)
        a.send("b", b"tracked")
        events = pump(a, b)
        assert len(events["reports"]) == 1
        peer, report = events["reports"][0]
        assert report.delivered and report.message == b"tracked"

    def test_busy_flag(self):
        a = AlphaEndpoint("a", seed=1)
        b = AlphaEndpoint("b", seed=2)
        establish_static(a, b)
        assert not a.busy
        a.send("b", b"m")
        assert a.busy
        pump(a, b)
        assert not a.busy

    def test_set_channel_config(self):
        a = AlphaEndpoint("a", seed=1)
        b = AlphaEndpoint("b", seed=2)
        establish_static(a, b)
        a.set_channel_config("b", ChannelConfig(mode=Mode.MERKLE, batch_size=4))
        for i in range(4):
            a.send("b", b"m%d" % i)
        events = pump(a, b)
        assert len(events["delivered"]) == 4
        assert a.association("b").signer.config.mode is Mode.MERKLE

    def test_set_channel_config_requires_establishment(self):
        a = AlphaEndpoint("a", seed=1)
        a.connect("b")
        with pytest.raises(ProtocolError):
            a.set_channel_config("b", ChannelConfig())

    def test_unknown_association_lookups(self):
        a = AlphaEndpoint("a", seed=1)
        with pytest.raises(ProtocolError):
            a.association("nobody")
        with pytest.raises(ProtocolError):
            a.association_by_id(404)

    def test_peers_listing(self):
        a = AlphaEndpoint("a", seed=1)
        b = AlphaEndpoint("b", seed=2)
        c = AlphaEndpoint("c", seed=3)
        establish_static(a, b)
        establish_static(a, c)
        assert a.peers == ["b", "c"]

    def test_chain_exhaustion_surfaces(self):
        # Re-keying disabled: exhaustion must surface loudly, not wedge.
        config = EndpointConfig(chain_length=4, rekey_threshold=0)
        a = AlphaEndpoint("a", config, seed=1)
        b = AlphaEndpoint("b", config, seed=2)
        establish_static(a, b)
        from repro.core.exceptions import ChainExhaustedError

        a.send("b", b"1")
        pump(a, b)
        a.send("b", b"2")
        pump(a, b)
        a.send("b", b"3")
        with pytest.raises(ChainExhaustedError):
            pump(a, b)


class TestWillingnessPolicy:
    """Endpoint-level accept policy (paper Section 3.5)."""

    def test_unwilling_endpoint_never_answers(self):
        config = EndpointConfig(
            chain_length=64, accept_policy=lambda s1: False, max_retries=2,
            retransmit_timeout_s=0.1,
        )
        a = AlphaEndpoint("a", EndpointConfig(chain_length=64,
                                              retransmit_timeout_s=0.1,
                                              max_retries=2), seed=1)
        b = AlphaEndpoint("b", config, seed=2)
        establish_static(a, b)
        a.send("b", b"unwanted")
        pump(a, b)
        assert b.association("a").verifier.refused_s1 >= 1
        signer = a.association("b").signer
        # The exchange times out and fails cleanly — no A1 ever came.
        for i in range(8):
            signer.poll(float(i))
        assert signer.stats.exchanges_failed == 1

    def test_selective_policy_by_batch_size(self):
        config = EndpointConfig(
            chain_length=64,
            accept_policy=lambda s1: s1.message_count <= 2,
        )
        a = AlphaEndpoint("a", EndpointConfig(chain_length=64), seed=3)
        b = AlphaEndpoint("b", config, seed=4)
        establish_static(a, b)
        a.send("b", b"small enough")
        events = pump(a, b)
        assert [m.message for _, m in events["delivered"]] == [b"small enough"]
