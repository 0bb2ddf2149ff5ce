"""Exact relay ledger under a forged-S2 flood, per mode.

One relay between signer and verifier on a reliable channel, in base
mode, ALPHA-C and ALPHA-M. Before every genuine S2 the relay sees a
forgery: the same S2 re-encoded with one message bit flipped, so only
the MAC (or Merkle) check can tell the two apart. The relay's ``stats``,
its ``drop_breakdown()`` and the ``(forward, reason, verified)`` of
every packet it judged are pinned exactly, so a rewrite of the relay's
verdict bookkeeping (``RelayEngine._count``) must keep every figure.
"""

import pytest

from repro.canonical import CanonicalChannel
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import decode_packet
from repro.core.signer import ChannelConfig
from repro.crypto.drbg import DRBG

#: Exchanges walked per mode.
EXCHANGES = 2


def forge(s2: bytes, hash_size: int) -> bytes:
    """``s2`` with the lowest bit of its first message byte flipped."""
    packet = decode_packet(s2, hash_size)
    packet.message = bytes([packet.message[0] ^ 1]) + packet.message[1:]
    return packet.encode()


def walk(mode: Mode, batch: int):
    config = ChannelConfig(
        mode=mode, batch_size=batch, reliability=ReliabilityMode.RELIABLE
    )
    channel = CanonicalChannel(DRBG(3, personalization=b"ledger-pin"), config)
    relay = channel.relay
    for exchange in range(EXCHANGES):
        messages = [b"ledger-%d-%d" % (exchange, i) for i in range(batch)]
        for message in messages:
            channel.signer.submit(message)
        s2s, now = channel.start()
        delivered = []
        for s2 in s2s:
            channel.decisions.append(
                relay.handle(forge(s2, channel.hash_size), "s", "v", now)
            )
            arrived, now = channel.finish([s2], now)
            delivered += arrived
        assert [m.message for m in delivered] == messages
    judged = [(d.forward, d.reason, d.verified) for d in channel.decisions]
    return relay, judged


def exchange_of(batch: int, forged_reason: str) -> list[tuple[bool, str, bool]]:
    """One exchange's relay verdicts: S1, A1, then per message the
    forged S2 (dropped), the genuine S2 and its A2."""
    per_message = [
        (False, forged_reason, False),
        (True, "s2-ok", True),
        (True, "a2-ok", True),
    ]
    return [(True, "s1-ok", True), (True, "a1-ok", True)] + per_message * batch


PINS = {
    "base": (
        Mode.BASE, 1,
        {
            "s1-ok": 2, "forwarded": 8, "a1-ok": 2, "s2-bad-payload": 2,
            "dropped": 2, "dropped.tampered": 2, "s2-ok": 2, "a2-ok": 2,
        },
        {"tampered": 2},
        exchange_of(1, "s2-bad-payload") * EXCHANGES,
    ),
    "alpha-c": (
        Mode.CUMULATIVE, 4,
        {
            "s1-ok": 2, "forwarded": 20, "a1-ok": 2, "s2-bad-payload": 8,
            "dropped": 8, "dropped.tampered": 8, "s2-ok": 8, "a2-ok": 8,
        },
        {"tampered": 8},
        exchange_of(4, "s2-bad-payload") * EXCHANGES,
    ),
    "alpha-m": (
        Mode.MERKLE, 4,
        {
            "s1-ok": 2, "forwarded": 20, "a1-ok": 2, "s2-bad-payload": 8,
            "dropped": 8, "dropped.tampered": 8, "s2-ok": 8, "a2-ok": 8,
        },
        {"tampered": 8},
        exchange_of(4, "s2-bad-payload") * EXCHANGES,
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_relay_ledger_is_pinned(name):
    mode, batch, stats, breakdown, judged = PINS[name]
    relay, got = walk(mode, batch)
    assert got == judged
    assert relay.stats == stats
    assert list(relay.stats.items()) == list(stats.items())
    assert relay.drop_breakdown() == breakdown
