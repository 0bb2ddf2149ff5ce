"""Relay engine: hop-by-hop verification, filtering, extraction."""

import pytest

from repro.core.hashchain import ACKNOWLEDGMENT_TAGS, ChainVerifier, HashChain
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import decode_packet
from repro.core.relay import RelayConfig, RelayEngine
from repro.core.signer import ChannelConfig, SignerSession
from repro.core.verifier import VerifierSession
from repro.crypto.hashes import get_hash

H = 20
ASSOC = 55


class Harness:
    """A signer, a verifier, and a relay in between, driven by hand."""

    def __init__(self, sha1, rng, config=None, relay_config=None, obs=None):
        if config is None:
            config = ChannelConfig()
        self.sha1 = sha1
        sig_chain = HashChain(sha1, rng.random_bytes(H), 64)
        ack_chain = HashChain(sha1, rng.random_bytes(H), 64, tags=ACKNOWLEDGMENT_TAGS)
        self.signer = SignerSession(
            sha1,
            sig_chain,
            ChainVerifier(sha1, ack_chain.anchor, tags=ACKNOWLEDGMENT_TAGS),
            config,
            ASSOC,
        )
        self.verifier = VerifierSession(
            sha1,
            ack_chain,
            ChainVerifier(sha1, sig_chain.anchor),
            ASSOC,
            rng.fork("v"),
        )
        self.relay = RelayEngine(get_hash("sha1"), relay_config, obs=obs)
        # Static provisioning: a "reverse" chain set is irrelevant here,
        # reuse the same anchors for the unused direction.
        self.relay.provision(
            assoc_id=ASSOC,
            initiator="s",
            responder="v",
            initiator_sig_anchor=sig_chain.anchor,
            initiator_ack_anchor=ack_chain.anchor,
            responder_sig_anchor=sig_chain.anchor,
            responder_ack_anchor=ack_chain.anchor,
        )

    def s_to_v(self, raw):
        return self.relay.handle(raw, "s", "v", 0.0)

    def v_to_s(self, raw):
        return self.relay.handle(raw, "v", "s", 0.0)

    def run_exchange(self, messages):
        """Full exchange through the relay; returns (delivered, decisions)."""
        decisions = []
        for m in messages:
            self.signer.submit(m)
        s1_raw = self.signer.poll(0.0)[0]
        decisions.append(self.s_to_v(s1_raw))
        a1_raw = self.verifier.handle_s1(decode_packet(s1_raw, H), 0.0)
        decisions.append(self.v_to_s(a1_raw))
        s2_raws = self.signer.handle_a1(decode_packet(a1_raw, H), 0.0)
        for raw in s2_raws:
            decisions.append(self.s_to_v(raw))
            a2 = self.verifier.handle_s2(decode_packet(raw, H), 0.0)
            if a2 is not None:
                decisions.append(self.v_to_s(a2))
                self.signer.handle_a2(decode_packet(a2, H), 0.0)
        return [m.message for m in self.verifier.drain_delivered()], decisions


class TestHonestTraffic:
    @pytest.mark.parametrize(
        "mode,batch",
        [(Mode.BASE, 1), (Mode.CUMULATIVE, 4), (Mode.MERKLE, 4)],
    )
    def test_all_packets_forwarded_and_verified(self, sha1, rng, mode, batch):
        config = ChannelConfig(mode=mode, batch_size=batch,
                               reliability=ReliabilityMode.RELIABLE)
        harness = Harness(sha1, rng, config)
        messages = [b"m%d" % i for i in range(batch)]
        delivered, decisions = harness.run_exchange(messages)
        assert delivered == messages
        assert all(d.forward for d in decisions)
        assert all(d.verified for d in decisions)

    def test_extraction(self, sha1, rng):
        harness = Harness(sha1, rng)
        harness.run_exchange([b"signal-payload"])
        extracted = harness.relay.drain_extracted()
        assert len(extracted) == 1
        assert extracted[0].message == b"signal-payload"
        assert extracted[0].signer == "s"
        assert harness.relay.drain_extracted() == []

    def test_relay_buffer_accounting(self, sha1, rng):
        config = ChannelConfig(mode=Mode.CUMULATIVE, batch_size=4)
        harness = Harness(sha1, rng, config)
        for m in (b"a", b"b", b"c", b"d"):
            harness.signer.submit(m)
        s1_raw = harness.signer.poll(0.0)[0]
        harness.s_to_v(s1_raw)
        # Table 2 relay column: n * h buffered after the S1.
        assert harness.relay.buffered_bytes == 4 * H

    def test_merkle_relay_buffers_single_root(self, sha1, rng):
        config = ChannelConfig(mode=Mode.MERKLE, batch_size=8)
        harness = Harness(sha1, rng, config)
        for i in range(8):
            harness.signer.submit(b"m%d" % i)
        harness.s_to_v(harness.signer.poll(0.0)[0])
        assert harness.relay.buffered_bytes == H  # one root regardless of n

    def test_s1_retransmission_forwarded(self, sha1, rng):
        harness = Harness(sha1, rng, ChannelConfig(retransmit_timeout_s=1.0))
        harness.signer.submit(b"m")
        s1_raw = harness.signer.poll(0.0)[0]
        assert harness.s_to_v(s1_raw).forward
        retrans = harness.signer.poll(2.0)[0]
        decision = harness.s_to_v(retrans)
        assert decision.forward
        assert decision.reason == "s1-retransmit"


class TestFiltering:
    def test_forged_s1_dropped(self, sha1, rng):
        from repro.core.packets import S1Packet

        harness = Harness(sha1, rng)
        forged = S1Packet(ASSOC, 1, Mode.BASE, 63, b"\x00" * H, [b"\x01" * H], 1)
        decision = harness.s_to_v(forged.encode())
        assert not decision.forward
        assert decision.reason == "s1-bad-chain-element"

    def test_tampered_s2_dropped(self, sha1, rng):
        harness = Harness(sha1, rng)
        harness.signer.submit(b"genuine")
        s1_raw = harness.signer.poll(0.0)[0]
        harness.s_to_v(s1_raw)
        a1_raw = harness.verifier.handle_s1(decode_packet(s1_raw, H), 0.0)
        harness.v_to_s(a1_raw)
        s2_raw = harness.signer.handle_a1(decode_packet(a1_raw, H), 0.0)[0]
        s2 = decode_packet(s2_raw, H)
        s2.message = b"tampered"
        decision = harness.s_to_v(s2.encode())
        assert not decision.forward
        assert decision.reason == "s2-bad-payload"

    def test_replayed_identity_token_cannot_forge_a_message(self, sha1, rng):
        # Regression: a commit used to cache the old trusted element even
        # when it was an S1 token, so the token authenticated a second
        # time — after its exchange had disclosed the MAC key below it.
        # Replaying exchange 1's S1 under a fresh seq with a pre-signature
        # keyed by that public key then forged a message end to end.
        from repro.core.packets import S2Packet

        harness = Harness(sha1, rng)
        harness.signer.submit(b"first")
        s1_raw = harness.signer.poll(0.0)[0]
        harness.s_to_v(s1_raw)
        a1_raw = harness.verifier.handle_s1(decode_packet(s1_raw, H), 0.0)
        harness.v_to_s(a1_raw)
        s2_raw = harness.signer.handle_a1(decode_packet(a1_raw, H), 0.0)[0]
        assert harness.s_to_v(s2_raw).reason == "s2-ok"
        harness.verifier.handle_s2(decode_packet(s2_raw, H), 0.0)
        assert [m.message for m in harness.verifier.drain_delivered()] == [b"first"]
        for message in (b"second", b"third"):
            delivered, _ = harness.run_exchange([message])
            assert delivered == [message]
        key = decode_packet(s2_raw, H).disclosed_element  # public by now

        forged_s1 = decode_packet(s1_raw, H)
        forged_s1.seq = 999
        forged_s1.pre_signatures = [get_hash("sha1").mac(key, b"EVIL")]
        decision = harness.s_to_v(forged_s1.encode())
        assert not decision.forward
        assert decision.reason == "s1-bad-chain-element"
        assert harness.verifier.handle_s1(forged_s1, 0.0) is None

        forged_s2 = S2Packet(ASSOC, 999, forged_s1.chain_index - 1, key, 0, b"EVIL")
        assert not harness.s_to_v(forged_s2.encode()).forward
        harness.verifier.handle_s2(forged_s2, 0.0)
        assert harness.verifier.drain_delivered() == []

    def test_unsolicited_s2_dropped_before_a1(self, sha1, rng):
        harness = Harness(sha1, rng)
        harness.signer.submit(b"m")
        s1_raw = harness.signer.poll(0.0)[0]
        harness.s_to_v(s1_raw)
        a1_raw = harness.verifier.handle_s1(decode_packet(s1_raw, H), 0.0)
        # A1 never traverses the relay; the signer gets it out of band.
        s2_raw = harness.signer.handle_a1(decode_packet(a1_raw, H), 0.0)[0]
        decision = harness.s_to_v(s2_raw)
        assert not decision.forward
        assert decision.reason == "s2-unsolicited"

    def test_unknown_exchange_s2_policy(self, sha1, rng):
        harness_strict = Harness(sha1, rng.fork("a"))
        harness_lax = Harness(
            sha1, rng.fork("b"), relay_config=RelayConfig(strict=False)
        )
        for harness, expect_forward in ((harness_strict, False), (harness_lax, True)):
            harness.signer.submit(b"m")
            s1_raw = harness.signer.poll(0.0)[0]
            # Relay misses the S1 entirely.
            a1_raw = harness.verifier.handle_s1(decode_packet(s1_raw, H), 0.0)
            s2_raw = harness.signer.handle_a1(decode_packet(a1_raw, H), 0.0)[0]
            assert harness.s_to_v(s2_raw).forward is expect_forward

    def test_forged_a1_dropped(self, sha1, rng):
        from repro.core.packets import A1Packet

        harness = Harness(sha1, rng)
        harness.signer.submit(b"m")
        s1_raw = harness.signer.poll(0.0)[0]
        harness.s_to_v(s1_raw)
        s1 = decode_packet(s1_raw, H)
        forged = A1Packet(ASSOC, s1.seq, 63, b"\x02" * H, s1.chain_index, s1.chain_element)
        assert not harness.v_to_s(forged.encode()).forward

    def test_forged_a2_dropped(self, sha1, rng):
        from repro.core.packets import A2Packet, AckVerdict

        config = ChannelConfig(reliability=ReliabilityMode.RELIABLE)
        harness = Harness(sha1, rng, config)
        harness.signer.submit(b"m")
        s1_raw = harness.signer.poll(0.0)[0]
        harness.s_to_v(s1_raw)
        a1_raw = harness.verifier.handle_s1(decode_packet(s1_raw, H), 0.0)
        harness.v_to_s(a1_raw)
        s2_raw = harness.signer.handle_a1(decode_packet(a1_raw, H), 0.0)[0]
        harness.s_to_v(s2_raw)
        genuine_a2 = decode_packet(harness.verifier.handle_s2(decode_packet(s2_raw, H), 0.0), H)
        forged = A2Packet(
            ASSOC,
            genuine_a2.seq,
            genuine_a2.disclosed_index,
            genuine_a2.disclosed_element,
            [AckVerdict(0, True, b"\x00" * 16)],
        )
        assert not harness.v_to_s(forged.encode()).forward
        assert harness.v_to_s(genuine_a2.encode()).forward

    def test_malformed_packet_dropped(self, sha1, rng):
        harness = Harness(sha1, rng)
        # Valid magic and S1 type byte, then truncated garbage.
        decision = harness.relay.handle(
            b"\xa1\xfa\x01\x03" + b"\x00" * 12 + b"trunc", "s", "v", 0.0
        )
        assert not decision.forward
        assert decision.reason == "malformed"

    def test_non_alpha_traffic_forwarded(self, sha1, rng):
        harness = Harness(sha1, rng)
        decision = harness.relay.handle(b"ordinary UDP payload", "s", "v", 0.0)
        assert decision.forward
        assert decision.reason == "not-alpha"

    def test_unknown_association_policy(self, sha1, rng):
        from repro.core.packets import S1Packet

        packet = S1Packet(999, 1, Mode.BASE, 63, b"\x00" * H, [b"\x01" * H], 1)
        open_relay = RelayEngine(get_hash("sha1"))
        assert open_relay.handle(packet.encode(), "s", "v", 0.0).forward
        closed_relay = RelayEngine(
            get_hash("sha1"), RelayConfig(forward_unknown=False)
        )
        assert not closed_relay.handle(packet.encode(), "s", "v", 0.0).forward


class TestFloodMitigation:
    def test_oversized_s1_dropped_until_allowance_grows(self, sha1, rng):
        config = ChannelConfig(mode=Mode.CUMULATIVE, batch_size=40)
        relay_config = RelayConfig(initial_s1_allowance=300)
        harness = Harness(sha1, rng, config, relay_config)
        for i in range(40):
            harness.signer.submit(b"m%d" % i)
        big_s1 = harness.signer.poll(0.0)[0]
        assert len(big_s1) > 300
        decision = harness.s_to_v(big_s1)
        assert not decision.forward
        assert decision.reason == "s1-over-allowance"

    def test_allowance_doubles_after_valid_a1(self, sha1, rng):
        relay_config = RelayConfig(initial_s1_allowance=300)
        harness = Harness(sha1, rng, relay_config=relay_config)
        harness.run_exchange([b"small"])
        channel = harness.relay._associations[ASSOC].forward_channel
        assert channel.s1_allowance == 600

    def test_stats_track_reasons(self, sha1, rng):
        harness = Harness(sha1, rng)
        harness.run_exchange([b"m"])
        assert harness.relay.stats["s1-ok"] == 1
        assert harness.relay.stats["a1-ok"] == 1
        assert harness.relay.stats["s2-ok"] == 1
        assert harness.relay.stats["forwarded"] == 3


class TestRelayEviction:
    """TTL + capacity bounds on the relay's S1/A1 buffers."""

    def run_s1_only_exchange(self, harness, message, now):
        """One exchange whose S1 transits the relay at time ``now``.

        The A1/S2 legs bypass the relay so the buffered state stays
        exactly one S1's worth, and the signer frees up for the next
        exchange.
        """
        harness.signer.submit(message)
        s1_raw = harness.signer.poll(now)[0]
        decision = harness.relay.handle(s1_raw, "s", "v", now)
        a1_raw = harness.verifier.handle_s1(decode_packet(s1_raw, H), now)
        harness.signer.handle_a1(decode_packet(a1_raw, H), now)
        harness.verifier.drain_delivered()
        return decision

    def test_ttl_evicts_stale_exchanges(self, sha1, rng):
        relay_config = RelayConfig(exchange_ttl_s=30.0, max_buffered_bytes=None)
        harness = Harness(sha1, rng, relay_config=relay_config)
        self.run_s1_only_exchange(harness, b"old", now=0.0)
        channel = harness.relay._associations[ASSOC].forward_channel
        assert len(channel.exchanges) == 1
        # 40 s later the buffered exchange has aged past its TTL; the
        # next transit packet triggers the prune.
        self.run_s1_only_exchange(harness, b"new", now=40.0)
        assert list(channel.exchanges) == [2]
        assert harness.relay.resilience.evictions_ttl == 1

    def test_recent_exchange_survives_prune(self, sha1, rng):
        relay_config = RelayConfig(exchange_ttl_s=30.0, max_buffered_bytes=None)
        harness = Harness(sha1, rng, relay_config=relay_config)
        self.run_s1_only_exchange(harness, b"a", now=0.0)
        self.run_s1_only_exchange(harness, b"b", now=20.0)  # touches nothing old
        channel = harness.relay._associations[ASSOC].forward_channel
        assert sorted(channel.exchanges) == [1, 2]
        assert harness.relay.resilience.evictions_ttl == 0

    def test_byte_capacity_evicts_oldest(self, sha1, rng):
        # Base-mode S1 buffers one 20-byte pre-signature per exchange;
        # a 50-byte ceiling holds two exchanges, not three.
        relay_config = RelayConfig(exchange_ttl_s=None, max_buffered_bytes=50)
        harness = Harness(sha1, rng, relay_config=relay_config)
        for i, t in enumerate((0.0, 1.0, 2.0, 3.0)):
            self.run_s1_only_exchange(harness, b"m%d" % i, now=t)
        channel = harness.relay._associations[ASSOC].forward_channel
        assert channel.buffered_bytes <= 50
        assert sorted(channel.exchanges) == [3, 4]  # oldest evicted first
        assert harness.relay.resilience.evictions_capacity == 2

    def test_byte_cap_holds_when_a1_commits(self, sha1, rng):
        # The byte cap holds when an A1 commits, not only at the next
        # packet. Two pipelined reliable ALPHA-C exchanges buffer
        # 4 x 20 B of pre-signatures each (160 B under a 200 B cap); the
        # first A1 adds 4 pre-acks and 4 pre-nacks (160 B), so the cap
        # must shed the other exchange before handle() returns.
        config = ChannelConfig(
            mode=Mode.CUMULATIVE,
            reliability=ReliabilityMode.RELIABLE,
            batch_size=4,
            max_outstanding=2,
        )
        relay_config = RelayConfig(exchange_ttl_s=None, max_buffered_bytes=200)
        harness = Harness(sha1, rng, config=config, relay_config=relay_config)
        for i in range(8):
            harness.signer.submit(b"m%d" % i)
        s1_first, s1_second = harness.signer.poll(0.0)
        assert harness.relay.handle(s1_first, "s", "v", 0.0).forward
        assert harness.relay.handle(s1_second, "s", "v", 1.0).forward
        channel = harness.relay._associations[ASSOC].forward_channel
        assert channel.buffered_bytes == 160
        a1_raw = harness.verifier.handle_s1(decode_packet(s1_first, H), 2.0)
        decision = harness.relay.handle(a1_raw, "v", "s", 2.0)
        assert decision.forward and decision.reason == "a1-ok"
        # One exchange alone may exceed the cap; two never may.
        assert sorted(channel.exchanges) == [1]
        assert sorted(channel.evicted) == [2]
        assert channel.buffered_bytes == 240
        assert harness.relay.resilience.evictions_capacity == 1

    def test_exchange_count_cap_counts_evictions(self, sha1, rng):
        relay_config = RelayConfig(
            exchange_ttl_s=None, max_buffered_bytes=None, max_buffered_exchanges=2
        )
        harness = Harness(sha1, rng, relay_config=relay_config)
        for i, t in enumerate((0.0, 1.0, 2.0)):
            self.run_s1_only_exchange(harness, b"m%d" % i, now=t)
        channel = harness.relay._associations[ASSOC].forward_channel
        assert sorted(channel.exchanges) == [2, 3]
        assert harness.relay.resilience.evictions_capacity == 1

    def test_eviction_disabled_when_none(self, sha1, rng):
        relay_config = RelayConfig(exchange_ttl_s=None, max_buffered_bytes=None)
        harness = Harness(sha1, rng, relay_config=relay_config)
        for i, t in enumerate((0.0, 100.0, 200.0)):
            self.run_s1_only_exchange(harness, b"m%d" % i, now=t)
        channel = harness.relay._associations[ASSOC].forward_channel
        assert sorted(channel.exchanges) == [1, 2, 3]
        assert harness.relay.resilience.evictions_ttl == 0
        assert harness.relay.resilience.evictions_capacity == 0


class TestEvictionTombstones:
    """Eviction must shed memory, not censor in-flight exchanges."""

    def start_exchange(self, harness, message, now, through_relay=True):
        """Run an exchange up to S2-in-hand; returns (s1_raw, s2_raws)."""
        harness.signer.submit(message)
        s1_raw = harness.signer.poll(now)[0]
        if through_relay:
            assert harness.relay.handle(s1_raw, "s", "v", now).forward
        a1_raw = harness.verifier.handle_s1(decode_packet(s1_raw, H), now)
        s2_raws = harness.signer.handle_a1(decode_packet(a1_raw, H), now)
        return s1_raw, s2_raws

    def test_evicted_exchange_degrades_to_unverified_forwarding(self, sha1, rng):
        relay_config = RelayConfig(exchange_ttl_s=30.0, max_buffered_bytes=None)
        harness = Harness(sha1, rng, relay_config=relay_config)
        s1_raw, s2_raws = self.start_exchange(harness, b"slow", now=0.0)
        # The exchange idles past its TTL; a later exchange's transit
        # packet triggers the prune that evicts it.
        self.start_exchange(harness, b"fresh", now=40.0)
        channel = harness.relay._associations[ASSOC].forward_channel
        assert 1 not in channel.exchanges
        assert harness.relay.resilience.evictions_ttl == 1
        # Late packets of the evicted exchange still cross the relay —
        # unverified (the chain element is single-use and was consumed
        # when the original S1 verified), never censored.
        decision = harness.relay.handle(s2_raws[0], "s", "v", 40.0)
        assert decision.forward
        assert decision.reason == "s2-evicted-unverified"
        # So does an S1 retransmission: its identity token was committed
        # when the original S1 verified, and a committed token never
        # re-enters the derived cache, so it can never re-verify (a
        # replayed token would otherwise authenticate a forged S1).
        decision = harness.relay.handle(s1_raw, "s", "v", 40.0)
        assert decision.forward
        assert decision.reason == "s1-evicted-unverified"
        # Later exchanges do not change that.
        self.start_exchange(harness, b"fresher", now=80.0)
        assert 1 not in harness.relay._associations[ASSOC].forward_channel.exchanges
        decision = harness.relay.handle(s1_raw, "s", "v", 80.0)
        assert decision.forward
        assert decision.reason == "s1-evicted-unverified"

    def test_never_seen_exchange_still_dropped_when_strict(self, sha1, rng):
        harness = Harness(sha1, rng)
        # This exchange's S1 never transits the relay, so its S2 hits
        # the strict unknown-exchange drop, not the tombstone path.
        _, s2_raws = self.start_exchange(
            harness, b"hidden", now=0.0, through_relay=False
        )
        decision = harness.relay.handle(s2_raws[0], "s", "v", 0.0)
        assert not decision.forward
        assert decision.reason == "s2-unknown-exchange"

    def test_tombstone_memory_is_bounded(self, sha1, rng):
        relay_config = RelayConfig(
            exchange_ttl_s=None,
            max_buffered_bytes=None,
            max_buffered_exchanges=1,
            evicted_memory=4,
        )
        harness = Harness(sha1, rng, relay_config=relay_config)
        for i in range(8):
            self.start_exchange(harness, b"m%d" % i, now=float(i))
        channel = harness.relay._associations[ASSOC].forward_channel
        assert len(channel.evicted) == 4
        assert sorted(channel.evicted) == [4, 5, 6, 7]  # newest kept


class TestEvictionOrder:
    """Regression: capacity eviction is least-recently-seen, not lowest seq.

    Under pipelining (or S1 retransmission) the lowest sequence number
    can be the exchange the signer is actively driving — evicting it
    would shed exactly the state the channel needs next. Both capacity
    paths (byte cap and entry cap) must pick the exchange with the
    stalest ``last_seen``, falling back to the sequence number only as
    a deterministic tie-break.
    """

    def start_exchange(self, harness, message, now):
        harness.signer.submit(message)
        s1_raw = harness.signer.poll(now)[0]
        assert harness.relay.handle(s1_raw, "s", "v", now).forward
        a1_raw = harness.verifier.handle_s1(decode_packet(s1_raw, H), now)
        harness.signer.handle_a1(decode_packet(a1_raw, H), now)
        return s1_raw

    def test_byte_cap_evicts_least_recently_seen(self, sha1, rng):
        # 50-byte ceiling holds two base-mode exchanges (20 bytes each).
        relay_config = RelayConfig(
            exchange_ttl_s=None, max_buffered_bytes=50, require_a1_for_s2=False
        )
        harness = Harness(sha1, rng, relay_config=relay_config)
        s1_first = self.start_exchange(harness, b"first", now=0.0)
        self.start_exchange(harness, b"second", now=1.0)
        # The signer retransmits the *first* exchange's S1: lowest seq,
        # freshest last_seen.
        assert harness.relay.handle(s1_first, "s", "v", 5.0).forward
        self.start_exchange(harness, b"third", now=6.0)
        channel = harness.relay._associations[ASSOC].forward_channel
        # Seq 2 (last seen at 1.0) is the eviction victim, not seq 1.
        assert sorted(channel.exchanges) == [1, 3]
        assert sorted(channel.evicted) == [2]
        assert harness.relay.resilience.evictions_capacity == 1

    def test_entry_cap_evicts_least_recently_seen(self, sha1, rng):
        relay_config = RelayConfig(
            exchange_ttl_s=None,
            max_buffered_bytes=None,
            max_buffered_exchanges=2,
            require_a1_for_s2=False,
        )
        harness = Harness(sha1, rng, relay_config=relay_config)
        s1_first = self.start_exchange(harness, b"first", now=0.0)
        self.start_exchange(harness, b"second", now=1.0)
        assert harness.relay.handle(s1_first, "s", "v", 5.0).forward
        self.start_exchange(harness, b"third", now=6.0)
        channel = harness.relay._associations[ASSOC].forward_channel
        assert sorted(channel.exchanges) == [1, 3]
        assert sorted(channel.evicted) == [2]

    def test_untouched_buffers_still_evict_oldest_first(self, sha1, rng):
        # With no retransmissions last_seen order equals seq order, so
        # the pre-existing oldest-first behaviour is unchanged.
        relay_config = RelayConfig(
            exchange_ttl_s=None, max_buffered_bytes=50, require_a1_for_s2=False
        )
        harness = Harness(sha1, rng, relay_config=relay_config)
        for i in range(4):
            self.start_exchange(harness, b"m%d" % i, now=float(i))
        channel = harness.relay._associations[ASSOC].forward_channel
        assert sorted(channel.exchanges) == [3, 4]
        assert sorted(channel.evicted) == [1, 2]


class TestDropBreakdown:
    """Per-cause drop attribution (stats + obs counters)."""

    def test_categories_accumulate_per_drop(self, sha1, rng):
        from repro.core.packets import S1Packet, S2Packet

        harness = Harness(sha1, rng)
        forged_s1 = S1Packet(ASSOC, 1, Mode.BASE, 63, b"\x00" * H, [b"\x01" * H], 1)
        assert not harness.s_to_v(forged_s1.encode()).forward
        stray = S2Packet(ASSOC, 9, 62, b"\x02" * H, 0, b"x")
        assert not harness.s_to_v(stray.encode()).forward
        breakdown = harness.relay.drop_breakdown()
        assert breakdown.get("forged") == 1  # s1-bad-chain-element
        assert breakdown.get("replayed") == 1  # s2-unknown-exchange
        assert sum(breakdown.values()) == harness.relay.stats["dropped"]
        # The precise reasons stay authoritative alongside the buckets.
        assert harness.relay.stats["s1-bad-chain-element"] == 1
        assert harness.relay.stats["s2-unknown-exchange"] == 1

    def test_honest_traffic_has_an_empty_breakdown(self, sha1, rng):
        harness = Harness(sha1, rng)
        delivered, decisions = harness.run_exchange([b"clean"])
        assert delivered == [b"clean"]
        assert harness.relay.drop_breakdown() == {}

    def test_obs_counters_mirror_the_stats(self, sha1, rng):
        from repro.core.packets import S1Packet
        from repro.obs import Observability

        obs = Observability()
        harness = Harness(sha1, rng, obs=obs)
        forged = S1Packet(ASSOC, 1, Mode.BASE, 63, b"\x00" * H, [b"\x01" * H], 1)
        harness.s_to_v(forged.encode())
        harness.s_to_v(forged.encode())
        counter = obs.registry.counter("relay.dropped.forged")
        assert counter.value == 2
        assert harness.relay.stats["dropped.forged"] == 2

    def test_every_categorised_reason_is_a_known_bucket(self):
        from repro.core.relay import DROP_CATEGORIES

        assert set(DROP_CATEGORIES.values()) <= {
            "forged", "tampered", "replayed", "reordered", "flooded", "malformed",
        }
