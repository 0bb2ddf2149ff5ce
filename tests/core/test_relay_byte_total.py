"""The relay's running byte total never drifts from its buffers.

``_ChannelObserver.buffered_bytes`` is a running sum kept where buffers
change — S1 buffering adds, an A1 commit adds its pre-acks, pre-nacks
and AMT root, eviction subtracts — so the byte cap costs O(1) per check
(PROTOCOL.md §14.1). The fixture below re-totals every channel of the
relay after *every* ``RelayEngine.handle`` and asserts the running sum
matches; the scenarios drive each path that grows or sheds a buffer:
S1 retransmits, A1 commits with reliable pre-(n)ack growth, entry-cap,
byte-cap and TTL eviction, and a crash restart with an S1 re-anchor and
an A1 re-journal.
"""

import pytest

from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import decode_packet
from repro.core.relay import RelayConfig, RelayEngine
from repro.core.signer import ChannelConfig
from tests.core.test_relay_journal import ASSOC, H, Harness


def reliable(mode=Mode.CUMULATIVE, batch_size=4, **kwargs):
    return ChannelConfig(
        mode=mode,
        batch_size=batch_size,
        reliability=ReliabilityMode.RELIABLE,
        **kwargs,
    )


def strict(**kwargs):
    return RelayConfig(strict=True, forward_unknown=False, **kwargs)


@pytest.fixture(autouse=True)
def reasons(monkeypatch):
    """Check every channel's running total after each handle; collect
    the decision reasons so a scenario can prove which paths it hit."""
    handle = RelayEngine.handle
    seen = []

    def checked(self, data, src, dst, now):
        decision = handle(self, data, src, dst, now)
        for assoc in self._associations.values():
            for channel in (assoc.forward_channel, assoc.reverse_channel):
                assert channel.buffered_bytes == sum(
                    ex.buffered_bytes for ex in channel.exchanges.values()
                ), decision.reason
        seen.append(decision.reason)
        return decision

    monkeypatch.setattr(RelayEngine, "handle", checked)
    return seen


def channel_of(harness):
    return harness.relay._associations[ASSOC].forward_channel


@pytest.mark.parametrize(
    "mode,a1_bytes",
    [
        (Mode.BASE, 2 * H),  # one pre-ack + one pre-nack
        (Mode.CUMULATIVE, 8 * H),  # four of each
        (Mode.MERKLE, H),  # one AMT root
    ],
    ids=["base", "cumulative", "merkle"],
)
def test_retransmits_and_a1_commit(sha1, rng, mode, a1_bytes):
    config = reliable(mode=mode, batch_size=1 if mode is Mode.BASE else 4)
    harness = Harness(sha1, rng, config)
    messages = [b"m%d" % i for i in range(config.batch_size)]
    s1_raw, a1_raw = harness.open_exchange(messages)
    s1_bytes = channel_of(harness).buffered_bytes
    assert s1_bytes > 0
    assert harness.s_to_v(s1_raw, 0.5).reason == "s1-retransmit"
    assert harness.v_to_s(a1_raw, 1.0).reason == "a1-ok"
    assert channel_of(harness).buffered_bytes == s1_bytes + a1_bytes
    assert harness.v_to_s(a1_raw, 1.5).reason == "a1-retransmit"
    assert harness.finish_exchange(a1_raw, now=2.0) == messages
    assert channel_of(harness).buffered_bytes == s1_bytes + a1_bytes


def test_entry_cap_eviction(sha1, rng):
    config = reliable(max_outstanding=3)
    relay_config = strict(
        max_buffered_exchanges=2, exchange_ttl_s=None, max_buffered_bytes=None
    )
    harness = Harness(sha1, rng, config, relay_config)
    for i in range(12):
        harness.signer.submit(b"m%d" % i)
    s1_raws = harness.signer.poll(0.0)
    assert len(s1_raws) == 3
    a1_first = harness.verifier.handle_s1(decode_packet(s1_raws[0], H), 0.0)
    assert harness.s_to_v(s1_raws[0], 0.0).reason == "s1-ok"
    assert harness.v_to_s(a1_first, 0.5).reason == "a1-ok"
    for t, raw in enumerate(s1_raws[1:], start=1):
        assert harness.s_to_v(raw, float(t)).reason == "s1-ok"
    assert sorted(channel_of(harness).exchanges) == [2, 3]
    assert harness.relay.stats.get("evicted.capacity", 0) == 1


def test_byte_cap_eviction_on_s1_and_a1(sha1, rng):
    # 4 x 20 B of pre-signatures per S1; an A1 adds 160 B of pre-(n)acks.
    config = reliable(max_outstanding=3)
    relay_config = strict(exchange_ttl_s=None, max_buffered_bytes=200)
    harness = Harness(sha1, rng, config, relay_config)
    for i in range(12):
        harness.signer.submit(b"m%d" % i)
    first, second, third = harness.signer.poll(0.0)
    assert harness.s_to_v(first, 0.0).forward
    assert harness.s_to_v(second, 1.0).forward
    assert harness.s_to_v(third, 2.0).forward  # 240 B: sheds seq 1
    assert sorted(channel_of(harness).exchanges) == [2, 3]
    a1_raw = harness.verifier.handle_s1(decode_packet(second, H), 3.0)
    assert harness.v_to_s(a1_raw, 3.0).reason == "a1-ok"  # sheds seq 3
    assert sorted(channel_of(harness).exchanges) == [2]
    assert channel_of(harness).buffered_bytes == 240
    assert harness.relay.stats.get("evicted.capacity", 0) == 2


def test_ttl_eviction(sha1, rng):
    relay_config = strict(exchange_ttl_s=30.0)
    harness = Harness(sha1, rng, reliable(), relay_config)
    _, a1_raw = harness.open_exchange([b"a", b"b", b"c", b"d"], through_a1=True)
    harness.finish_exchange(a1_raw)
    assert channel_of(harness).buffered_bytes == 240
    harness.open_exchange([b"e", b"f", b"g", b"h"], now=40.0)
    assert harness.relay.stats.get("evicted.ttl", 0) == 1
    assert sorted(channel_of(harness).exchanges) == [2]
    assert channel_of(harness).buffered_bytes == 80


def test_restore_reanchor_and_rejournal(sha1, rng, reasons):
    harness = Harness(sha1, rng, reliable())
    messages = [b"a", b"b", b"c", b"d"]
    s1_raw, a1_raw = harness.open_exchange(messages, through_a1=True)
    harness.crash_restart(now=1.0)
    assert channel_of(harness).buffered_bytes == 0  # buffers are not journaled
    assert harness.s_to_v(s1_raw, 1.0).reason == "s1-reanchored"
    assert channel_of(harness).buffered_bytes == 80
    assert harness.v_to_s(a1_raw, 1.0).reason == "a1-rejournaled"
    assert channel_of(harness).buffered_bytes == 240
    assert harness.finish_exchange(a1_raw, now=1.0) == messages
    # A fresh exchange after the restart accounts from the restored total.
    _, a1_next = harness.open_exchange([b"e", b"f", b"g", b"h"], now=2.0)
    assert harness.v_to_s(a1_next, 2.0).reason == "a1-ok"
    assert channel_of(harness).buffered_bytes == 480
    assert {"s1-reanchored", "a1-rejournaled", "a1-ok"} <= set(reasons)
