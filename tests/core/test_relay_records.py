"""The exchange records and verdicts the relay shares across packets.

Each S1 builds one slotted exchange record at every relay and at the
verifier; only a Merkle-mode record carries a ``MerkleVerifyCache``,
because the BASE and ALPHA-C S2 check never reads one. Each fixed
outcome of :meth:`RelayEngine.handle` is one shared, frozen
``RelayDecision``; only an extracting relay's verified S2 gets a fresh
one, which carries the payload (PROTOCOL.md §14.5).
"""

import dataclasses

import pytest

from repro.canonical import CanonicalChannel
from repro.core.merkle import MerkleVerifyCache
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import decode_packet
from repro.core.signer import ChannelConfig
from repro.crypto.drbg import DRBG

MODES = [
    (Mode.BASE, 1),
    (Mode.CUMULATIVE, 4),
    (Mode.MERKLE, 4),
    (Mode.MERKLE_CUMULATIVE, 8),
]


def channel_for(mode, batch, extract=False):
    config = ChannelConfig(
        mode=mode, batch_size=batch, reliability=ReliabilityMode.RELIABLE
    )
    channel = CanonicalChannel(DRBG(5, personalization=b"relay-records"), config)
    channel.relay.extract = extract
    return channel


def records(channel):
    """The relay's and the verifier's record of every buffered exchange."""
    (assoc,) = channel.relay._associations.values()
    return list(assoc.forward_channel.exchanges.values()), list(
        channel.verifier._exchanges.values()
    )


def forge(s2: bytes, hash_size: int) -> bytes:
    """``s2`` with the lowest bit of its first message byte flipped."""
    packet = decode_packet(s2, hash_size)
    packet.message = bytes([packet.message[0] ^ 1]) + packet.message[1:]
    return packet.encode()


@pytest.mark.parametrize("mode,batch", MODES, ids=lambda v: getattr(v, "name", v))
def test_merkle_cache_only_in_merkle_modes(mode, batch):
    channel = channel_for(mode, batch)
    caches = []
    for exchange in range(2):
        for i in range(batch):
            channel.signer.submit(b"r%d-%d" % (exchange, i))
        s2s, now = channel.start(now=float(exchange))
        relay_side, verifier_side = records(channel)
        for record in (relay_side[-1], verifier_side[-1]):
            if mode in (Mode.MERKLE, Mode.MERKLE_CUMULATIVE):
                # Fresh per exchange: nothing proven before its first S2.
                assert type(record.merkle_cache) is MerkleVerifyCache
                assert len(record.merkle_cache) == 0
                assert record.merkle_cache.hits == record.merkle_cache.misses == 0
                caches.append(record.merkle_cache)
            else:
                assert record.merkle_cache is None
        delivered, _ = channel.finish(s2s, now)
        assert len(delivered) == batch
    assert len({id(cache) for cache in caches}) == len(caches)


def test_records_are_slotted():
    channel = channel_for(Mode.CUMULATIVE, 4)
    for i in range(4):
        channel.signer.submit(b"m%d" % i)
    channel.start()
    for side in records(channel):
        with pytest.raises(AttributeError):
            side[0].unknown_field = 1


def test_shared_decisions_are_frozen():
    channel = channel_for(Mode.BASE, 1)
    _, first = channel.exchange([b"one"])
    _, second = channel.exchange([b"two"], now=1.0)
    assert [d.reason for d in first] == ["s1-ok", "a1-ok", "s2-ok", "a2-ok"]
    # One instance per outcome, shared by every packet that has it.
    assert all(a is b for a, b in zip(first, second))
    for field in ("forward", "reason", "verified", "extracted"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(first[0], field, None)
    assert (first[0].forward, first[0].reason, first[0].verified) == (
        True, "s1-ok", True
    )


@pytest.mark.parametrize("mode,batch", MODES, ids=lambda v: getattr(v, "name", v))
def test_extraction_changes_no_verdict(mode, batch):
    """The same stream, forged S2s included, through a default relay and
    an extracting one: the same verdicts, and payloads only on the
    extracting relay's verified S2s."""
    streams = []
    for extract in (False, True):
        channel = channel_for(mode, batch, extract=extract)
        channel.decisions = []
        sent = []
        for exchange in range(2):
            messages = [b"x%d-%d" % (exchange, i) for i in range(batch)]
            for message in messages:
                channel.signer.submit(message)
            s2s, now = channel.start(now=float(exchange))
            for s2 in s2s:
                channel.decisions.append(
                    channel.relay.handle(forge(s2, channel.hash_size), "s", "v", now)
                )
                delivered, now = channel.finish([s2], now)
                sent += [m.message for m in delivered]
        streams.append((channel.decisions, sent))
    (plain, plain_sent), (extracting, extracted_sent) = streams
    assert plain_sent == extracted_sent and len(plain_sent) == 2 * batch
    assert [(d.forward, d.reason, d.verified) for d in plain] == [
        (d.forward, d.reason, d.verified) for d in extracting
    ]
    assert all(d.extracted == () for d in plain)
    carried = [d.extracted for d in extracting if d.extracted]
    assert [d.reason for d in extracting if d.extracted] == ["s2-ok"] * 2 * batch
    assert [message.message for (message,) in carried] == extracted_sent
    assert sum(d.reason == "s2-bad-payload" for d in extracting) == 2 * batch
