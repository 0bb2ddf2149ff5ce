"""Chain elements built in C are ``ChainElement`` instances.

The decode-side sites (relay ``on_s1``/``on_a1``/re-anchor, the
verifier's S1, the S2 and A2 key checks, the signer's A1) build each
element with :data:`repro.core.hashchain.new_element`, ``tuple.__new__``
bound to the class, instead of the NamedTuple's Python ``__new__``.
What they build must be indistinguishable from ``ChainElement(i, v)``,
down to the relay's crash journal.
"""

from __future__ import annotations

import copy
import hashlib
import json
import pickle

import pytest

from repro.core import relay, signer, verifier
from repro.core.hashchain import ChainElement, new_element
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import PacketType, peek_type
from repro.core.relay import RelayEngine
from repro.crypto.hashes import get_hash
from tests.core.relay_traces import record_trace

PAIRS = [(0, b""), (1, b"\x00" * 20), (63, bytes(range(32))), (2**40, b"\xff" * 8)]


@pytest.mark.parametrize("index,value", PAIRS)
def test_c_built_element_is_a_chain_element(index, value):
    built, plain = new_element((index, value)), ChainElement(index, value)
    assert type(built) is ChainElement
    assert built == plain and not built != plain
    assert hash(built) == hash(plain)
    assert repr(built) == repr(plain)
    assert built._asdict() == plain._asdict()
    assert (built.index, built.value) == (index, value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        thawed = pickle.loads(pickle.dumps(built, protocol))
        assert type(thawed) is ChainElement and thawed == plain
    assert pickle.dumps(built) == pickle.dumps(plain)
    assert copy.deepcopy(built) == plain
    assert built._replace(index=index + 1) == ChainElement(index + 1, value)


def python_built(pair):
    return ChainElement(*pair)


#: sha256 of the relay's final ``json.dumps(snapshot())`` per trace,
#: taken with the NamedTuple constructor at every site.
JOURNAL_PINS = {
    "base": "82d31e165f48ee358714205d960acafb4967b059be15ce83b6fe6de908e4eb66",
    "alpha-c": "01702c5228ccdf262e08ae1cf7950b7f43dfdd3d2ca34ff81541f42e3b550bea",
}
TRACES = {
    "base": (Mode.BASE, ReliabilityMode.RELIABLE, 1),
    "alpha-c": (Mode.CUMULATIVE, ReliabilityMode.RELIABLE, 4),
}


def journal(engine: RelayEngine) -> str:
    return json.dumps(engine.snapshot())


@pytest.mark.parametrize("name", sorted(TRACES))
def test_relay_journal_is_unchanged(name, monkeypatch):
    """A relay whose elements are built in C journals byte for byte what
    one built by the NamedTuple's constructor journals, after every
    packet; each journal survives ``json`` and ``restore()`` byte for
    byte, and so does a re-anchor of each journaled S1; and the final
    journal is the one pinned with the NamedTuple constructor."""
    mode, reliability, batch = TRACES[name]
    trace = record_trace(mode, reliability, batch=batch, messages=8)
    c_built = RelayEngine(get_hash("sha1"))
    judged = []
    for data, src, dst, now in trace:
        judged.append(c_built.handle(data, src, dst, now).reason)
        snapshot = journal(c_built)
        restored = RelayEngine.restore(get_hash("sha1"), json.loads(snapshot), now=now)
        assert journal(restored) == snapshot
        if peek_type(data) is PacketType.S1:
            # The restarted relay re-anchors the S1 it journaled.
            assert restored.handle(data, src, dst, now).reason == "s1-reanchored"
            assert journal(restored) == snapshot
        judged.append(snapshot)
    for module in (relay, signer, verifier):
        monkeypatch.setattr(module, "new_element", python_built)
    py_built = RelayEngine(get_hash("sha1"))
    replayed = []
    for data, src, dst, now in trace:
        replayed.append(py_built.handle(data, src, dst, now).reason)
        replayed.append(journal(py_built))
    assert judged == replayed
    final = journal(c_built)
    assert hashlib.sha256(final.encode()).hexdigest() == JOURNAL_PINS[name]
