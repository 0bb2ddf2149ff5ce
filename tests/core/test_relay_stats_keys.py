"""Each relay decision books its precomputed ``stats`` keys.

Every :class:`RelayDecision` carries the :attr:`RelayEngine.stats` keys
it books (the reason, then ``forwarded``, or ``dropped`` and its
``dropped.<category>`` key), so ``RelayEngine._count`` is one loop over
them. :class:`BranchyCountRelay` keeps the branchy ``_count`` those keys
replaced, and is the oracle here: on every shared decision, on recorded
forged-S2 floods and on the decode-error corpus of
``tests/properties/test_relay_intake.py``, both engines must hold the
same ``stats`` (in the same key order) and the same ``drop_breakdown()``
after every packet.
"""

from __future__ import annotations

import pytest

from repro.core.hashchain import ChainElement
from repro.core.modes import Mode, ReliabilityMode
from repro.core.relay import (
    _DROP_KEYS,
    _DROPPED,
    _UNVERIFIED,
    _VERIFIED,
    RelayDecision,
    RelayEngine,
)
from repro.crypto.hashes import get_hash
from repro.obs import EventKind
from tests.core.relay_traces import record_trace
from tests.properties.test_relay_intake import HASHES, VECTORS, mutants, peek_assoc_id


class BranchyCountRelay(RelayEngine):
    """The relay with the ``_count`` that branched on every decision."""

    def _count(self, decision, now=0.0, packet=None):
        stats = self.stats
        reason = decision.reason
        stats[reason] = stats.get(reason, 0) + 1
        if decision.forward:
            stats["forwarded"] = stats.get("forwarded", 0) + 1
        else:
            stats["dropped"] = stats.get("dropped", 0) + 1
            key = _DROP_KEYS.get(reason, "dropped.policy")
            stats[key] = stats.get(key, 0) + 1
        if self._obs.enabled:
            event = EventKind.RELAY_FORWARD if decision.forward else EventKind.RELAY_DROP
            if self.hop:
                reason = f"hop={self.hop} {reason}"
            self._obs.tracer.emit(
                now, self.name, event,
                getattr(packet, "assoc_id", 0), getattr(packet, "seq", 0),
                msg_index=getattr(packet, "msg_index", -1),
                info=reason,
            )
        return decision


def assert_same_books(fast: RelayEngine, oracle: RelayEngine) -> None:
    assert list(fast.stats.items()) == list(oracle.stats.items())
    assert fast.drop_breakdown() == oracle.drop_breakdown()


SHARED = [
    decision
    for table in (_VERIFIED, _UNVERIFIED, _DROPPED)
    for decision in table.values()
]


@pytest.mark.parametrize("decision", SHARED, ids=lambda d: f"{d.forward}-{d.reason}")
def test_every_shared_decision_books_what_the_branches_booked(decision):
    fast = RelayEngine(get_hash("sha1"))
    oracle = BranchyCountRelay(get_hash("sha1"))
    for _ in range(2):
        assert fast._count(decision) is decision
        assert oracle._count(decision) is decision
        assert_same_books(fast, oracle)


def test_fresh_decisions_get_their_keys():
    """A decision built outside the tables (an extracting relay's S2, or
    a subclass's own verdict) books the same keys."""
    for forward in (True, False):
        for reason in ("s2-ok", "s2-bad-key", "malformed", "s1-mismatch", "other"):
            decision = RelayDecision(forward, reason)
            fast = RelayEngine(get_hash("sha1"))
            oracle = BranchyCountRelay(get_hash("sha1"))
            fast._count(decision)
            oracle._count(decision)
            assert decision.stats == tuple(oracle.stats)
            assert_same_books(fast, oracle)


FLOODS = {
    "base-unreliable": (Mode.BASE, ReliabilityMode.UNRELIABLE, 1),
    "base-reliable": (Mode.BASE, ReliabilityMode.RELIABLE, 1),
    "alpha-c-reliable": (Mode.CUMULATIVE, ReliabilityMode.RELIABLE, 4),
    "alpha-m-reliable": (Mode.MERKLE, ReliabilityMode.RELIABLE, 4),
}


@pytest.mark.parametrize("extract", [False, True])
@pytest.mark.parametrize("flood", sorted(FLOODS))
def test_flood_trace(flood, extract):
    mode, reliability, batch = FLOODS[flood]
    trace = record_trace(mode, reliability, batch=batch, forge=True)
    fast = RelayEngine(get_hash("sha1"), extract=extract)
    oracle = BranchyCountRelay(get_hash("sha1"), extract=extract)
    for data, src, dst, now in trace:
        got = fast.handle(data, src, dst, now)
        want = oracle.handle(data, src, dst, now)
        assert (got.forward, got.reason, got.verified) == (
            want.forward, want.reason, want.verified,
        )
        assert_same_books(fast, oracle)
    # The flood reaches both sides of the ledger.
    assert fast.stats["dropped.tampered"] > 0 and fast.stats["s2-ok"] > 0


@pytest.mark.parametrize("hash_size", sorted(HASHES))
def test_decode_error_corpus(hash_size):
    engines = []
    for cls in (RelayEngine, BranchyCountRelay):
        engine = cls(get_hash(HASHES[hash_size]))
        anchor = ChainElement(1000, b"\x00" * hash_size)
        for vector in VECTORS:
            engine.provision(
                peek_assoc_id(bytes.fromhex(vector["hex"])), "s", "v",
                anchor, anchor, anchor, anchor,
            )
        engines.append(engine)
    fast, oracle = engines
    for vector in VECTORS:
        if vector["hash_size"] != hash_size:
            continue
        for data in mutants(bytes.fromhex(vector["hex"])):
            got = fast.handle(data, "s", "v", 0.0)
            want = oracle.handle(data, "s", "v", 0.0)
            assert (got.forward, got.reason) == (want.forward, want.reason)
            assert_same_books(fast, oracle)
    assert fast.stats["dropped.malformed"] > 0 and fast.stats["forwarded"] > 0
