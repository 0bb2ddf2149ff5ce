"""Reliable delivery: pre-(n)acks, A2 handling, selective-repeat retransmits."""

import pytest

from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import A2Packet, AckVerdict, decode_packet
from repro.canonical import CanonicalChannel
from repro.core.signer import PRE_ACK_TAG, PRE_NACK_TAG, ChannelConfig
from repro.crypto.drbg import DRBG

from tests.core.test_sessions import make_channel

H = 20


def reliable_config(mode=Mode.BASE, batch=4):
    return ChannelConfig(
        mode=mode,
        reliability=ReliabilityMode.RELIABLE,
        batch_size=batch,
        retransmit_timeout_s=1.0,
    )


def start_reliable_exchange(sha1, rng, config, messages):
    signer, verifier = make_channel(sha1, rng, config)
    for message in messages:
        signer.submit(message)
    s1 = decode_packet(signer.poll(0.0)[0], H)
    a1 = decode_packet(verifier.handle_s1(s1, 0.0), H)
    s2_raw = signer.handle_a1(a1, 0.0)
    return signer, verifier, s1, a1, [decode_packet(raw, H) for raw in s2_raw]


class TestPreAckCommitments:
    def test_a1_carries_one_pair_per_message(self, sha1, rng):
        _, _, _, a1, _ = start_reliable_exchange(
            sha1, rng, reliable_config(Mode.CUMULATIVE, 3), [b"a", b"b", b"c"]
        )
        assert len(a1.pre_acks) == 3
        assert len(a1.pre_nacks) == 3
        assert a1.amt_root is None

    def test_secrets_are_slices_of_one_draw(self, sha1, rng):
        """ALPHA-C (PROTOCOL.md §4): an exchange's 2n secrets are one
        32·n-byte DRBG draw. Message j's ack secret is bytes [32j, 32j+16)
        of it and its nack secret bytes [32j+16, 32j+32)."""
        signer, verifier = make_channel(sha1, rng, reliable_config(Mode.CUMULATIVE, 4))
        verifier._rng, twin = DRBG(b"secrets"), DRBG(b"secrets")
        channel = CanonicalChannel.around(signer, verifier, H)
        seen: set[bytes] = set()
        for batch in (4, 1, 3, 4, 2):
            for index in range(batch):
                signer.submit(b"m%d" % index)
            s1 = decode_packet(signer.poll(0.0)[0], H)
            a1 = decode_packet(verifier.handle_s1(s1, 0.0), H)
            exchange = verifier._exchanges[s1.seq]
            draw = twin.random_bytes(32 * batch)
            acks, nacks = exchange.ack_secrets, exchange.nack_secrets
            assert acks == [draw[j : j + 16] for j in range(0, 32 * batch, 32)]
            assert nacks == [draw[j + 16 : j + 32] for j in range(0, 32 * batch, 32)]
            key = exchange.ack_key_element.value
            assert a1.pre_acks == [sha1.digest(key + PRE_ACK_TAG + s) for s in acks]
            assert a1.pre_nacks == [sha1.digest(key + PRE_NACK_TAG + s) for s in nacks]
            # No secret repeats, within the exchange or across exchanges.
            assert len({*acks, *nacks}) == 2 * batch
            assert seen.isdisjoint(acks + nacks)
            seen.update(acks + nacks)
            delivered, _ = channel.finish(signer.handle_a1(a1, 0.0))
            assert len(delivered) == batch

    def test_merkle_uses_amt_root(self, sha1, rng):
        _, _, _, a1, _ = start_reliable_exchange(
            sha1, rng, reliable_config(Mode.MERKLE, 4), [b"a", b"b", b"c", b"d"]
        )
        assert a1.amt_root is not None
        assert a1.pre_acks == []

    def test_unreliable_a1_has_no_commitments(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng)
        signer.submit(b"m")
        s1 = decode_packet(signer.poll(0.0)[0], H)
        a1 = decode_packet(verifier.handle_s1(s1, 0.0), H)
        assert a1.pre_acks == [] and a1.amt_root is None


class TestAckFlow:
    @pytest.mark.parametrize("mode,batch", [(Mode.BASE, 1), (Mode.CUMULATIVE, 3), (Mode.MERKLE, 4)])
    def test_full_ack_completes_exchange(self, sha1, rng, mode, batch):
        messages = [b"m%d" % i for i in range(batch)]
        signer, verifier, _, _, s2s = start_reliable_exchange(
            sha1, rng, reliable_config(mode, batch), messages
        )
        for s2 in s2s:
            a2_raw = verifier.handle_s2(s2, 0.0)
            assert a2_raw is not None
            signer.handle_a2(decode_packet(a2_raw, H), 0.0)
        assert signer.stats.exchanges_completed == 1
        reports = signer.drain_reports()
        assert len(reports) == batch
        assert all(r.delivered for r in reports)

    def test_nack_triggers_selective_retransmit(self, sha1, rng):
        signer, verifier, _, _, s2s = start_reliable_exchange(
            sha1, rng, reliable_config(Mode.CUMULATIVE, 3), [b"a", b"b", b"c"]
        )
        # Deliver 0 and 2 fine; tamper 1 so the verifier nacks it.
        acks = []
        s2s[1].message = b"corrupted"
        for s2 in s2s:
            a2_raw = verifier.handle_s2(s2, 0.0)
            assert a2_raw is not None
            acks.append(decode_packet(a2_raw, H))
        assert acks[1].verdicts[0].is_ack is False
        retransmissions = []
        for a2 in acks:
            retransmissions.extend(signer.handle_a2(a2, 0.0))
        # Selective repeat: only message 1 is retransmitted.
        assert len(retransmissions) == 1
        s2_retry = decode_packet(retransmissions[0], H)
        assert s2_retry.msg_index == 1
        a2_raw = verifier.handle_s2(s2_retry, 0.0)
        signer.handle_a2(decode_packet(a2_raw, H), 0.0)
        assert signer.stats.exchanges_completed == 1

    def test_s2_timeout_retransmits_unacked(self, sha1, rng):
        signer, verifier, _, _, s2s = start_reliable_exchange(
            sha1, rng, reliable_config(Mode.CUMULATIVE, 3), [b"a", b"b", b"c"]
        )
        # Only message 0's A2 arrives; 1 and 2's S2s (or A2s) were lost.
        a2_raw = verifier.handle_s2(s2s[0], 0.0)
        signer.handle_a2(decode_packet(a2_raw, H), 0.0)
        retrans = signer.poll(2.0)
        indices = sorted(decode_packet(r, H).msg_index for r in retrans)
        assert indices == [1, 2]

    def test_ack_overrides_earlier_nack(self, sha1, rng):
        # An attacker-injected corrupted S2 draws a nack, then the real
        # S2 arrives and is acked; the exchange must still complete.
        signer, verifier, _, _, s2s = start_reliable_exchange(
            sha1, rng, reliable_config(Mode.BASE, 1), [b"real"]
        )
        import copy

        fake = copy.deepcopy(s2s[0])
        fake.message = b"fake"
        nack_raw = verifier.handle_s2(fake, 0.0)
        ack_raw = verifier.handle_s2(s2s[0], 0.0)
        signer.handle_a2(decode_packet(nack_raw, H), 0.0)
        signer.handle_a2(decode_packet(ack_raw, H), 0.0)
        assert signer.stats.exchanges_completed == 1


class TestA2Validation:
    def test_forged_a2_secret_ignored(self, sha1, rng):
        signer, verifier, _, a1, s2s = start_reliable_exchange(
            sha1, rng, reliable_config(Mode.BASE, 1), [b"m"]
        )
        genuine = decode_packet(verifier.handle_s2(s2s[0], 0.0), H)
        forged = A2Packet(
            assoc_id=genuine.assoc_id,
            seq=genuine.seq,
            disclosed_index=genuine.disclosed_index,
            disclosed_element=genuine.disclosed_element,
            verdicts=[AckVerdict(0, True, b"\x00" * 16)],
        )
        signer.handle_a2(forged, 0.0)
        assert signer.stats.exchanges_completed == 0  # forged ack not accepted
        signer.handle_a2(genuine, 0.0)
        assert signer.stats.exchanges_completed == 1

    def test_a2_with_bad_disclosure_ignored(self, sha1, rng):
        signer, verifier, _, _, s2s = start_reliable_exchange(
            sha1, rng, reliable_config(Mode.BASE, 1), [b"m"]
        )
        genuine = decode_packet(verifier.handle_s2(s2s[0], 0.0), H)
        genuine.disclosed_element = b"\xFF" * 20
        signer.handle_a2(genuine, 0.0)
        assert signer.stats.exchanges_completed == 0

    def test_a2_odd_disclosure_index_ignored(self, sha1, rng):
        signer, verifier, _, _, s2s = start_reliable_exchange(
            sha1, rng, reliable_config(Mode.BASE, 1), [b"m"]
        )
        genuine = decode_packet(verifier.handle_s2(s2s[0], 0.0), H)
        genuine.disclosed_index += 1
        signer.handle_a2(genuine, 0.0)
        assert signer.stats.exchanges_completed == 0

    def test_flipped_verdict_fails_verification(self, sha1, rng):
        # Turning a nack into an ack requires the ack secret, which the
        # verifier never disclosed.
        signer, verifier, _, _, s2s = start_reliable_exchange(
            sha1, rng, reliable_config(Mode.BASE, 1), [b"m"]
        )
        s2s[0].message = b"bad"
        nack = decode_packet(verifier.handle_s2(s2s[0], 0.0), H)
        assert nack.verdicts[0].is_ack is False
        nack.verdicts[0].is_ack = True  # attacker flips the bit
        signer.handle_a2(nack, 0.0)
        assert signer.stats.exchanges_completed == 0

    def test_amt_flipped_verdict_fails(self, sha1, rng):
        signer, verifier, _, _, s2s = start_reliable_exchange(
            sha1, rng, reliable_config(Mode.MERKLE, 2), [b"a", b"b"]
        )
        s2s[0].message = b"bad"
        # Merkle: tampering breaks the path, so this draws a nack.
        nack = decode_packet(verifier.handle_s2(s2s[0], 0.0), H)
        assert nack.verdicts[0].is_ack is False
        nack.verdicts[0].is_ack = True
        signer.handle_a2(nack, 0.0)
        assert 0 not in signer._exchanges[nack.seq].acked

    def test_out_of_range_verdict_ignored(self, sha1, rng):
        signer, verifier, _, _, s2s = start_reliable_exchange(
            sha1, rng, reliable_config(Mode.BASE, 1), [b"m"]
        )
        genuine = decode_packet(verifier.handle_s2(s2s[0], 0.0), H)
        genuine.verdicts[0].msg_index = 9
        signer.handle_a2(genuine, 0.0)
        assert signer.stats.exchanges_completed == 0


class TestCorruptedIndexRegression:
    def test_out_of_range_msg_index_gets_no_nack(self, sha1, rng):
        """Regression: a corrupted S2 with msg_index beyond the exchange
        used to crash the verifier's AMT opening (found by the
        adversarial-channel property test)."""
        signer, verifier, _, _, s2s = start_reliable_exchange(
            sha1, rng, reliable_config(Mode.MERKLE, 1), [b"only"]
        )
        import copy

        corrupted = copy.deepcopy(s2s[0])
        corrupted.msg_index = 23040
        assert verifier.handle_s2(corrupted, 0.0) is None  # no crash, no nack
        # The genuine packet still completes the exchange.
        a2 = verifier.handle_s2(s2s[0], 0.0)
        signer.handle_a2(decode_packet(a2, H), 0.0)
        assert signer.stats.exchanges_completed == 1
