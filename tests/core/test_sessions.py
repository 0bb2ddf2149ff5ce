"""Direct-drive tests of the signer and verifier state machines.

No network: packets produced by one session are decoded and fed to the
other by hand, which makes loss, reordering, duplication, and tampering
trivial to stage.
"""

import pytest

from repro.canonical import CanonicalChannel
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import A1Packet, S1Packet, decode_packet
from repro.core.signer import ChannelConfig

ASSOC = 77


def make_channel(sha1, rng, config=None, accept_policy=None, chain_length=64):
    """A signer and verifier wired to each other's anchors."""
    channel = CanonicalChannel(
        rng,
        config,
        relays=0,
        chain_length=chain_length,
        accept_policy=accept_policy,
        assoc_id=ASSOC,
    )
    return channel.signer, channel.verifier


def run_exchange(sha1, signer, verifier, messages, now=0.0):
    """Drive one full exchange; returns delivered messages."""
    channel = CanonicalChannel.around(signer, verifier, sha1.digest_size)
    delivered, _ = channel.exchange(messages, now)
    return [m.message for m in delivered]


class TestBasicExchange:
    def test_single_message(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng)
        assert run_exchange(sha1, signer, verifier, [b"hello"]) == [b"hello"]

    def test_sequential_exchanges(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng)
        for i in range(5):
            msg = b"m%d" % i
            assert run_exchange(sha1, signer, verifier, [msg]) == [msg]

    def test_cumulative_batch(self, sha1, rng):
        config = ChannelConfig(mode=Mode.CUMULATIVE, batch_size=4)
        signer, verifier = make_channel(sha1, rng, config)
        messages = [b"a", b"b", b"c", b"d"]
        assert run_exchange(sha1, signer, verifier, messages) == messages

    def test_merkle_batch(self, sha1, rng):
        config = ChannelConfig(mode=Mode.MERKLE, batch_size=8)
        signer, verifier = make_channel(sha1, rng, config)
        messages = [b"block-%d" % i for i in range(8)]
        assert run_exchange(sha1, signer, verifier, messages) == messages

    def test_base_mode_sends_one_message_per_exchange(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng)
        signer.submit(b"one")
        signer.submit(b"two")
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        assert s1.message_count == 1
        assert signer.queue_depth == 1

    def test_empty_message_rejected(self, sha1, rng):
        signer, _ = make_channel(sha1, rng)
        with pytest.raises(ValueError):
            signer.submit(b"")

    def test_oversized_message_rejected(self, sha1, rng):
        signer, _ = make_channel(sha1, rng)
        with pytest.raises(ValueError):
            signer.submit(b"x" * 70000)

    def test_idle_property(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng)
        assert signer.idle
        signer.submit(b"m")
        assert not signer.idle
        run_packets = signer.poll(0.0)
        assert run_packets and not signer.idle
        a1 = verifier.handle_s1(decode_packet(run_packets[0], 20), 0.0)
        signer.handle_a1(decode_packet(a1, 20), 0.0)
        assert signer.idle  # unreliable: done after S2s produced


class TestS2Verification:
    def stage_s2(self, sha1, rng, mutate):
        signer, verifier = make_channel(sha1, rng)
        signer.submit(b"genuine")
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        a1 = decode_packet(verifier.handle_s1(s1, 0.0), 20)
        s2_raw = signer.handle_a1(a1, 0.0)[0]
        s2 = decode_packet(s2_raw, 20)
        mutate(s2)
        verifier.handle_s2(s2, 0.0)
        return verifier

    def test_tampered_message_dropped(self, sha1, rng):
        def mutate(s2):
            s2.message = b"evil!!!"

        verifier = self.stage_s2(sha1, rng, mutate)
        assert verifier.drain_delivered() == []
        assert verifier.rejected_s2 == 1

    def test_wrong_key_dropped(self, sha1, rng):
        def mutate(s2):
            s2.disclosed_element = b"\x00" * 20

        verifier = self.stage_s2(sha1, rng, mutate)
        assert verifier.drain_delivered() == []

    def test_wrong_key_index_dropped(self, sha1, rng):
        def mutate(s2):
            s2.disclosed_index -= 2

        verifier = self.stage_s2(sha1, rng, mutate)
        assert verifier.drain_delivered() == []

    def test_unknown_seq_dropped(self, sha1, rng):
        def mutate(s2):
            s2.seq = 999

        verifier = self.stage_s2(sha1, rng, mutate)
        assert verifier.drain_delivered() == []

    def test_duplicate_s2_delivered_once(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng)
        signer.submit(b"m")
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        a1 = decode_packet(verifier.handle_s1(s1, 0.0), 20)
        s2 = decode_packet(signer.handle_a1(a1, 0.0)[0], 20)
        verifier.handle_s2(s2, 0.0)
        verifier.handle_s2(s2, 0.0)
        assert len(verifier.drain_delivered()) == 1

    def test_merkle_out_of_order_s2(self, sha1, rng):
        config = ChannelConfig(mode=Mode.MERKLE, batch_size=4)
        signer, verifier = make_channel(sha1, rng, config)
        for i in range(4):
            signer.submit(b"m%d" % i)
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        a1 = decode_packet(verifier.handle_s1(s1, 0.0), 20)
        s2s = [decode_packet(raw, 20) for raw in signer.handle_a1(a1, 0.0)]
        for s2 in reversed(s2s):  # deliver in reverse
            verifier.handle_s2(s2, 0.0)
        delivered = {m.msg_index: m.message for m in verifier.drain_delivered()}
        assert delivered == {i: b"m%d" % i for i in range(4)}

    def test_merkle_subset_still_verifies(self, sha1, rng):
        config = ChannelConfig(mode=Mode.MERKLE, batch_size=4)
        signer, verifier = make_channel(sha1, rng, config)
        for i in range(4):
            signer.submit(b"m%d" % i)
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        a1 = decode_packet(verifier.handle_s1(s1, 0.0), 20)
        s2s = [decode_packet(raw, 20) for raw in signer.handle_a1(a1, 0.0)]
        verifier.handle_s2(s2s[2], 0.0)  # only one arrives
        assert [m.message for m in verifier.drain_delivered()] == [b"m2"]


class TestS1Handling:
    def test_duplicate_s1_returns_identical_a1(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng)
        signer.submit(b"m")
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        a1_first = verifier.handle_s1(s1, 0.0)
        a1_second = verifier.handle_s1(s1, 0.0)
        assert a1_first == a1_second

    def test_forged_s1_ignored(self, sha1, rng):
        _, verifier = make_channel(sha1, rng)
        forged = S1Packet(ASSOC, 1, Mode.BASE, 63, b"\x00" * 20, [b"\x01" * 20], 1)
        assert verifier.handle_s1(forged, 0.0) is None
        assert verifier.rejected_s1 == 1

    def test_even_position_s1_rejected(self, sha1, rng):
        # The reformatting-attack parity check.
        signer, verifier = make_channel(sha1, rng)
        chain = signer.chain
        s1_elem, key_elem = chain.next_exchange()
        forged = S1Packet(
            ASSOC, 1, Mode.BASE, key_elem.index, key_elem.value, [b"\x01" * 20], 1
        )
        assert verifier.handle_s1(forged, 0.0) is None

    def test_unwilling_verifier_denies_a1(self, sha1, rng):
        signer, verifier = make_channel(
            sha1, rng, accept_policy=lambda s1: False
        )
        signer.submit(b"m")
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        assert verifier.handle_s1(s1, 0.0) is None
        assert verifier.refused_s1 == 1

    def test_selective_willingness(self, sha1, rng):
        signer, verifier = make_channel(
            sha1, rng, accept_policy=lambda s1: s1.message_count <= 1
        )
        signer.submit(b"m")
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        assert verifier.handle_s1(s1, 0.0) is not None


class TestA1Handling:
    def test_stale_a1_ignored(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng)
        signer.submit(b"m")
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        a1 = decode_packet(verifier.handle_s1(s1, 0.0), 20)
        a1.seq = 42
        assert signer.handle_a1(a1, 0.0) == []

    def test_forged_a1_ignored(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng)
        signer.submit(b"m")
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        forged = A1Packet(ASSOC, s1.seq, 63, b"\x00" * 20, s1.chain_index, s1.chain_element)
        assert signer.handle_a1(forged, 0.0) == []

    def test_wrong_echo_ignored(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng)
        signer.submit(b"m")
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        a1 = decode_packet(verifier.handle_s1(s1, 0.0), 20)
        a1.echo_sig_element = b"\x00" * 20
        assert signer.handle_a1(a1, 0.0) == []

    def test_second_a1_after_s2_discarded(self, sha1, rng):
        # Paper Section 3.2.2: once an S2 went out, later A1s for the
        # same exchange are ignored.
        config = ChannelConfig(reliability=ReliabilityMode.RELIABLE)
        signer, verifier = make_channel(sha1, rng, config)
        signer.submit(b"m")
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        a1 = decode_packet(verifier.handle_s1(s1, 0.0), 20)
        assert signer.handle_a1(a1, 0.0) != []
        assert signer.handle_a1(a1, 0.0) == []


class TestTimeouts:
    def test_s1_retransmitted_on_timeout(self, sha1, rng):
        config = ChannelConfig(retransmit_timeout_s=1.0)
        signer, _ = make_channel(sha1, rng, config)
        signer.submit(b"m")
        first = signer.poll(0.0)
        assert len(first) == 1
        assert signer.poll(0.5) == []
        retrans = signer.poll(1.5)
        assert retrans == first  # byte-identical S1

    def test_exchange_fails_after_max_retries(self, sha1, rng):
        config = ChannelConfig(
            retransmit_timeout_s=1.0, max_retries=2, adaptive_rto=False
        )
        signer, _ = make_channel(sha1, rng, config)
        signer.submit(b"m")
        signer.poll(0.0)
        now = 0.0
        for _ in range(4):
            now += 1.5
            signer.poll(now)
        assert signer.stats.exchanges_failed == 1
        reports = signer.drain_reports()
        assert len(reports) == 1
        assert not reports[0].delivered

    def test_next_exchange_starts_after_failure(self, sha1, rng):
        config = ChannelConfig(
            retransmit_timeout_s=1.0, max_retries=1, adaptive_rto=False
        )
        signer, verifier = make_channel(sha1, rng, config)
        signer.submit(b"dead")
        signer.submit(b"alive")
        signer.poll(0.0)
        packets = signer.poll(2.0)  # retry 1
        packets = signer.poll(4.0)  # fail, start next exchange
        assert len(packets) == 1
        s1 = decode_packet(packets[0], 20)
        a1 = decode_packet(verifier.handle_s1(s1, 4.0), 20)
        for raw in signer.handle_a1(a1, 4.0):
            verifier.handle_s2(decode_packet(raw, 20), 4.0)
        assert [m.message for m in verifier.drain_delivered()] == [b"alive"]
