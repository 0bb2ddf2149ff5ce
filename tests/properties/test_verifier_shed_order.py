"""Differential property test: the verifier's shed order.

Once its exchange table is full, ``VerifierSession._remember`` sheds the
lowest fully delivered seq first, else the lowest seq. It keeps the fully
delivered seqs in a heap, pushed when an exchange's last message lands,
and scans only when none is fully delivered. :func:`lambda_min_remember`
is the rule as it was first written: a ``min`` over every buffered
exchange keyed by (not fully delivered, seq).

Two verifiers with identical chains, one with each rule, get the same
random history: S1s out of order and retransmitted, S2s duplicated and
delivered partly or wholly, and S2s of exchanges never announced or
already shed. After every packet both must return the same bytes, hold
the same exchanges and have delivered the same messages. Caps 1-9.
"""

from __future__ import annotations

import random
import types

import pytest

from repro.canonical import CanonicalChannel
from repro.core.modes import Mode
from repro.core.packets import decode_packet
from repro.core.signer import ChannelConfig
from repro.crypto.drbg import DRBG

H = 20
EXCHANGES = 24
CONFIG = ChannelConfig(mode=Mode.CUMULATIVE, batch_size=4)


def lambda_min_remember(self, exchange) -> None:
    self._exchanges[exchange.seq] = exchange
    while len(self._exchanges) > self.max_buffered_exchanges:
        victim = min(
            self._exchanges.values(),
            key=lambda ex: (len(ex.delivered) < ex.message_count, ex.seq),
        )
        del self._exchanges[victim.seq]


def channel(seed: int) -> CanonicalChannel:
    return CanonicalChannel(DRBG(seed), CONFIG, relays=0, chain_length=4 * EXCHANGES)


def exchange_pool(seed: int, rng: random.Random) -> list[tuple[bytes, list[bytes]]]:
    """``EXCHANGES`` exchanges of 1-4 messages: each one's S1 and S2s,
    walked in order through a verifier with the same chains."""
    walk = channel(seed)
    walk.verifier.max_buffered_exchanges = EXCHANGES
    pool = []
    for number in range(EXCHANGES):
        for index in range(rng.randint(1, CONFIG.batch_size)):
            walk.signer.submit(b"x%d.%d" % (number, index))
        (s1,) = walk.signer.poll(0.0)
        s2s, _ = walk.start(0.0, s1=s1)
        walk.finish(s2s)
        pool.append((s1, s2s))
    return pool


def history(pool, rng: random.Random, steps: int) -> list[bytes]:
    """S1s roughly in order with jumps back (out of order, retransmits),
    and S2s of any exchange in the pool, mostly the recent ones."""
    packets, front = [], 0
    for _ in range(steps):
        if rng.random() < 0.3 and front < len(pool):
            front = min(len(pool), front + rng.randint(1, 3))
            packets.append(pool[front - 1][0])
        elif rng.random() < 0.15:
            packets.append(pool[rng.randrange(len(pool))][0])
        else:
            low = max(0, front - 10)
            s2s = pool[rng.randrange(low, max(front, low + 1))][1]
            packets.append(rng.choice(s2s))
    return packets


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cap", range(1, 10))
def test_shed_order_matches_the_lambda_min_rule(cap, seed):
    rng = random.Random(seed * 100 + cap)
    pool = exchange_pool(seed, rng)
    verifier = channel(seed).verifier
    reference = channel(seed).verifier
    reference._remember = types.MethodType(lambda_min_remember, reference)
    for session in (verifier, reference):
        session.max_buffered_exchanges = cap
    shed = {True: 0, False: 0}
    for step, data in enumerate(history(pool, rng, 160)):
        packet = decode_packet(data, H)
        handler = "handle_s1" if packet.TYPE == 3 else "handle_s2"
        before = dict(verifier._exchanges)
        got = getattr(verifier, handler)(packet, float(step))
        want = getattr(reference, handler)(decode_packet(data, H), float(step))
        assert got == want, step
        assert list(verifier._exchanges) == list(reference._exchanges), step
        assert verifier.delivered == reference.delivered, step
        for seq in before.keys() - verifier._exchanges.keys():
            exchange = before[seq]
            shed[len(exchange.delivered) == exchange.message_count] += 1
    # The history reaches both branches of the rule: fully delivered
    # exchanges shed, and live ones shed while none is fully delivered.
    assert shed[True] > 0 and shed[False] > 0, shed
