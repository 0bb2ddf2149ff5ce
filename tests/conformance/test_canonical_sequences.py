"""Conformance: canonical exchanges replay to *exact* event sequences.

Each canonical exchange (paper Figures 2–4) is driven over an in-memory
signer → relay → verifier path with observability enabled, and the
resulting trace is compared against the protocol's reference sequence
event for event. Any reordering of the interlock — an S2 accepted
before its S1, a delivery without a verify, a relay forward without an
admit — changes the sequence and fails the suite.

The expected sequences are built from shared fragments because the
exchanges genuinely share structure: every mode opens with the same
S1 → A1 interlock, and each S2 leg is the same four (unreliable) or
eight (reliable) events repeated per message.
"""

from __future__ import annotations

import re

import pytest

from repro.obs import EventKind as K
from repro.canonical import (
    CANONICAL_ASSOC,
    CANONICAL_EXCHANGES,
    MULTIHOP_EXCHANGE,
    run_canonical,
)

#: Every exchange opens identically: S1 out, relay buffers + forwards,
#: verifier checks and acks, signer validates the ack and updates RTO.
PREAMBLE = [
    ("signer", K.S1_SEND),
    ("relay", K.RELAY_ADMIT),
    ("relay", K.RELAY_FORWARD),
    ("verifier", K.S1_RECV),
    ("verifier", K.S1_VERIFY_OK),
    ("verifier", K.A1_SEND),
    ("relay", K.RELAY_FORWARD),
    ("signer", K.A1_RECV),
    ("signer", K.A1_VERIFY_OK),
    ("signer", K.RTO_UPDATE),
]

#: One S2 leg, unreliable: forward, receive, verify, deliver — no ack.
S2_LEG = [
    ("relay", K.RELAY_FORWARD),
    ("verifier", K.S2_RECV),
    ("verifier", K.S2_VERIFY_OK),
    ("verifier", K.DELIVER),
]

#: One S2 leg, reliable: the unreliable leg plus the A2 round trip.
S2_LEG_RELIABLE = S2_LEG + [
    ("verifier", K.A2_SEND),
    ("relay", K.RELAY_FORWARD),
    ("signer", K.A2_RECV),
    ("signer", K.A2_VERIFY_OK),
]

EXPECTED = {
    # Figure 2: one message, done as soon as the S2 leaves the signer.
    "basic": (
        PREAMBLE
        + [("signer", K.S2_SEND), ("signer", K.EXCHANGE_DONE)]
        + S2_LEG
    ),
    # Figure 3: the exchange completes only after the A2 verifies.
    "reliable": (
        PREAMBLE
        + [("signer", K.S2_SEND)]
        + S2_LEG_RELIABLE
        + [("signer", K.EXCHANGE_DONE)]
    ),
    # Figure 4a: one S1/A1 amortized over an n=4 burst of S2s.
    "alpha-c": (
        PREAMBLE
        + [("signer", K.S2_SEND)] * 4
        + [("signer", K.EXCHANGE_DONE)]
        + S2_LEG * 4
    ),
    # ALPHA-M reliable: four auth-path S2s, each individually acked;
    # done only when the last A2 lands.
    "alpha-m": (
        PREAMBLE
        + [("signer", K.S2_SEND)] * 4
        + S2_LEG_RELIABLE * 4
        + [("signer", K.EXCHANGE_DONE)]
    ),
}

CANONICAL = sorted(CANONICAL_EXCHANGES)


@pytest.fixture(scope="module")
def traces():
    """One replay per canonical exchange, shared across the module."""
    return {name: run_canonical(name) for name in CANONICAL}


@pytest.mark.parametrize("name", CANONICAL)
class TestExactSequences:
    def test_expected_table_covers_exchange(self, traces, name):
        assert name in EXPECTED

    def test_exact_event_sequence(self, traces, name):
        tracer = traces[name].tracer
        assert tracer.dropped == 0
        assert tracer.sequence() == EXPECTED[name]

    def test_sequence_is_seed_independent(self, name, traces):
        replay = run_canonical(name, seed="another-seed")
        assert replay.tracer.sequence() == EXPECTED[name]

    def test_every_event_tagged_with_canonical_identity(self, traces, name):
        for event in traces[name].tracer.events:
            assert event.assoc_id == CANONICAL_ASSOC, event
            assert event.seq == 1, event


@pytest.mark.parametrize("name", CANONICAL)
class TestInterlockInvariants:
    """Ordering properties the sequence check implies, asserted directly
    so a future sequence-table edit cannot silently weaken them."""

    def test_no_s2_accepted_before_s1_mac_buffered(self, traces, name):
        events = traces[name].tracer.events
        kinds = [e.kind for e in events]
        # The verifier must buffer (verify) the S1 MAC commitment before
        # any S2 is even received, let alone accepted.
        assert kinds.index(K.S1_VERIFY_OK) < kinds.index(K.S2_RECV)
        first_s2_ok = kinds.index(K.S2_VERIFY_OK)
        assert kinds.index(K.S1_VERIFY_OK) < first_s2_ok
        # Same on the relay: the S1 admit precedes every S2 forward.
        assert kinds.index(K.RELAY_ADMIT) < first_s2_ok

    def test_disclosed_key_one_element_behind_s1(self, traces, name):
        """Hash-chain role binding: the disclosed (even-position) MAC key
        sits exactly one chain element behind the (odd-position) S1
        pre-signature element."""
        oks = [
            e for e in traces[name].tracer.events if e.kind is K.S2_VERIFY_OK
        ]
        _, _, count = CANONICAL_EXCHANGES[name]
        assert len(oks) == count
        for event in oks:
            match = re.fullmatch(r"disclosed=(\d+) s1=(\d+)", event.info)
            assert match, event.info
            disclosed, s1 = int(match.group(1)), int(match.group(2))
            assert disclosed == s1 - 1

    def test_relay_forwards_at_most_one_copy_per_exchange(self, traces, name):
        """The relay buffers each S1 once and never re-forwards a copy:
        exactly one admit, exactly one s1-ok forward, and exactly one
        forward per distinct downstream packet."""
        tracer = traces[name].tracer
        assert tracer.count(K.RELAY_ADMIT) == 1
        forwards = [
            e for e in tracer.events if e.kind is K.RELAY_FORWARD
        ]
        reasons = [e.info for e in forwards]
        _, reliability, count = CANONICAL_EXCHANGES[name]
        assert reasons.count("s1-ok") == 1
        assert reasons.count("a1-ok") == 1
        assert reasons.count("s2-ok") == count
        expected_a2 = count if name in ("reliable", "alpha-m") else 0
        assert reasons.count("a2-ok") == expected_a2
        assert len(forwards) == 2 + count + expected_a2
        assert tracer.count(K.RELAY_DROP) == 0

    def test_delivery_unique_per_message_index(self, traces, name):
        delivers = [
            e for e in traces[name].tracer.events if e.kind is K.DELIVER
        ]
        _, _, count = CANONICAL_EXCHANGES[name]
        assert sorted(e.msg_index for e in delivers) == list(range(count))

    def test_metrics_reconcile_with_trace(self, traces, name):
        """The registry's counters and the tracer tell the same story."""
        obs = traces[name]
        snap = obs.registry.snapshot()
        tracer = obs.tracer
        _, _, count = CANONICAL_EXCHANGES[name]
        assert snap["signer.s1_sent"] == tracer.count(K.S1_SEND) == 1
        assert snap["signer.s2_sent"] == tracer.count(K.S2_SEND) == count
        assert snap["verifier.delivered"] == tracer.count(K.DELIVER) == count
        assert snap["signer.exchanges_done"] == 1
        assert snap["relay.admits"] == 1
        assert snap["relay.forwarded"] == tracer.count(K.RELAY_FORWARD)
        assert snap["signer.rtt_s"]["count"] == tracer.count(K.RTO_UPDATE) == 1


#: The hop-spanning replay: the reliable exchange of Figure 3 walked
#: across two placed relays. Every forward leg visits relay1 then
#: relay2; every acknowledgment leg walks back relay2 then relay1.
MULTIHOP_EXPECTED = [
    ("signer", K.S1_SEND),
    ("relay1", K.RELAY_ADMIT),
    ("relay1", K.RELAY_FORWARD),
    ("relay2", K.RELAY_ADMIT),
    ("relay2", K.RELAY_FORWARD),
    ("verifier", K.S1_RECV),
    ("verifier", K.S1_VERIFY_OK),
    ("verifier", K.A1_SEND),
    ("relay2", K.RELAY_FORWARD),
    ("relay1", K.RELAY_FORWARD),
    ("signer", K.A1_RECV),
    ("signer", K.A1_VERIFY_OK),
    ("signer", K.RTO_UPDATE),
    ("signer", K.S2_SEND),
    ("relay1", K.RELAY_FORWARD),
    ("relay2", K.RELAY_FORWARD),
    ("verifier", K.S2_RECV),
    ("verifier", K.S2_VERIFY_OK),
    ("verifier", K.DELIVER),
    ("verifier", K.A2_SEND),
    ("relay2", K.RELAY_FORWARD),
    ("relay1", K.RELAY_FORWARD),
    ("signer", K.A2_RECV),
    ("signer", K.A2_VERIFY_OK),
    ("signer", K.EXCHANGE_DONE),
]


class TestMultihopSequence:
    """The 2-relay replay stitches into one hop-ordered timeline."""

    @pytest.fixture(scope="class")
    def trace(self):
        return run_canonical(MULTIHOP_EXCHANGE)

    def test_exact_event_sequence(self, trace):
        assert trace.tracer.dropped == 0
        assert trace.tracer.sequence() == MULTIHOP_EXPECTED

    def test_sequence_is_seed_independent(self, trace):
        replay = run_canonical(MULTIHOP_EXCHANGE, seed="another-seed")
        assert replay.tracer.sequence() == MULTIHOP_EXPECTED

    def test_one_exchange_identity_spans_all_hops(self, trace):
        for event in trace.tracer.events:
            assert event.assoc_id == CANONICAL_ASSOC, event
            assert event.seq == 1, event

    def test_forwards_carry_hop_ordinals(self, trace):
        """Each relay stamps its hop into the trace context, and the
        packet visits the hops in path order (1→2 forward, 2→1 back)."""
        hops = [
            (e.node, e.info.split()[0])
            for e in trace.tracer.events
            if e.kind is K.RELAY_FORWARD
        ]
        assert hops == [
            ("relay1", "hop=1"), ("relay2", "hop=2"),  # S1 out
            ("relay2", "hop=2"), ("relay1", "hop=1"),  # A1 back
            ("relay1", "hop=1"), ("relay2", "hop=2"),  # S2 out
            ("relay2", "hop=2"), ("relay1", "hop=1"),  # A2 back
        ]

    def test_clock_advances_per_wire_leg(self, trace):
        times = [e.t for e in trace.tracer.events]
        assert times == sorted(times)
        # Eight relay traversals + eight endpoint legs on the 5 ms grid.
        assert times[-1] == pytest.approx(0.060)

    def test_single_relay_replays_keep_unplaced_trace_shape(self):
        """Placing relays is opt-in: the historical canonical replays
        still trace with the bare reason string (no hop context)."""
        obs = run_canonical("reliable")
        for event in obs.tracer.events:
            if event.kind is K.RELAY_FORWARD:
                assert not event.info.startswith("hop=")


class TestTimestamps:
    def test_clock_monotone_and_hop_spaced(self):
        obs = run_canonical("reliable", hop_delay_s=0.01)
        times = [e.t for e in obs.tracer.events]
        assert times == sorted(times)
        # Events sit on the 10 ms hop grid the runner drives.
        assert all(abs(t / 0.01 - round(t / 0.01)) < 1e-9 for t in times)

    def test_formatter_renders_full_timeline(self):
        from repro.obs.format import format_summary, format_timeline

        obs = run_canonical("reliable")
        timeline = format_timeline(obs.tracer.events)
        lines = timeline.splitlines()
        assert len(lines) == len(EXPECTED["reliable"])
        assert "s1-send" in lines[0] and "exchange-done" in lines[-1]
        summary = format_summary(obs)
        assert "event counts:" in summary
        assert "signer.rtt_s" in summary
