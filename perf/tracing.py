"""Span tracing of the stack's public calls, installed from outside it.

:func:`installed` wraps each function in :data:`TARGETS` for the
duration of a ``with`` block. Every call records one span — name,
start, end, parent span and request id — into flat arrays kept in
memory; :meth:`SpanRecorder.write_jsonl` writes them out afterwards.
A layer is the span name's prefix up to the first dot, and its self
time is its spans' time minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from perf import stats

#: ``(module, class or None, attribute, span name)`` for every wrapped
#: call. Module-level functions are patched in each module that imports
#: them, because ``from x import f`` binds its own name.
TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.core.relay", "RelayEngine", "handle", "relay.handle"),
    ("repro.core.hashchain", "ChainVerifier", "verify", "hashchain.verify"),
    ("repro.core.hashchain", "ChainVerifier", "verify_disclosure", "hashchain.verify_disclosure"),
    ("repro.core.hashchain", "ChainVerifier", "consume_derived", "hashchain.consume_derived"),
    ("repro.core.hashchain", "HashChain", "__init__", "hashchain.build"),
    ("repro.crypto.hashes", "HashFunction", "digest", "crypto.digest"),
    ("repro.crypto.hashes", "HashFunction", "mac", "crypto.mac"),
    ("repro.core.endpoint", None, "decode_packet", "packets.decode"),
    ("repro.core.relay", None, "decode_packet", "packets.decode"),
    ("repro.core.packets", "S1Packet", "encode", "packets.encode"),
    ("repro.core.packets", "A1Packet", "encode", "packets.encode"),
    ("repro.core.packets", "S2Packet", "encode", "packets.encode"),
    ("repro.core.packets", "A2Packet", "encode", "packets.encode"),
    ("repro.core.merkle", "MerkleTree", "__init__", "merkle.build"),
    ("repro.core.merkle", "MerkleTree", "root", "merkle.root"),
    ("repro.core.merkle", "MerkleTree", "path", "merkle.path"),
    ("repro.core.relay", None, "verify_merkle_path", "merkle.verify"),
    ("repro.core.verifier", None, "verify_merkle_path", "merkle.verify"),
    ("repro.core.acktree", None, "verify_merkle_path", "merkle.verify"),
    ("repro.core.acktree", "AckTree", "__init__", "acktree.build"),
    ("repro.core.acktree", "AckTree", "open", "acktree.open"),
    ("repro.core.relay", None, "verify_ack_opening", "acktree.verify"),
    ("repro.core.signer", None, "verify_ack_opening", "acktree.verify"),
    ("repro.core.signer", "SignerSession", "submit", "signer.submit"),
    ("repro.core.signer", "SignerSession", "poll", "signer.poll"),
    ("repro.core.signer", "SignerSession", "handle_a1", "signer.handle_a1"),
    ("repro.core.signer", "SignerSession", "handle_a2", "signer.handle_a2"),
    ("repro.core.verifier", "VerifierSession", "handle_s1", "verifier.handle_s1"),
    ("repro.core.verifier", "VerifierSession", "handle_s2", "verifier.handle_s2"),
    ("repro.core.verifier", "VerifierSession", "drain_delivered", "verifier.drain_delivered"),
    ("repro.core.endpoint", "AlphaEndpoint", "send", "endpoint.send"),
    ("repro.core.endpoint", "AlphaEndpoint", "on_packet", "endpoint.on_packet"),
    ("repro.core.endpoint", "AlphaEndpoint", "poll", "endpoint.poll"),
    ("repro.core.endpoint", None, "build_handshake", "bootstrap.build_handshake"),
    ("repro.core.endpoint", None, "validate_handshake", "bootstrap.validate_handshake"),
    ("repro.core.bootstrap", "ChainSet", "create", "bootstrap.chains"),
    # The benchmark's own driver: its turns are the root spans, so time
    # no layer below claims is the pump's.
    ("perf.workloads", "Pump", "step", "pump.step"),
    ("perf.workloads", "Pump", "advance", "pump.advance"),
    ("perf.workloads", "FloodReplay", "work", "pump.replay"),
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class SpanRecorder:
    """Spans in flat arrays; ``source.request_id`` tags each one."""

    def __init__(self, source) -> None:
        self.source = source
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("q")
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, fn, name: str):
        """``fn`` recording one span per call."""
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        name_ids, starts, ends = self.name_id, self.start, self.end
        parents, requests, open_spans = self.parent, self.request, self._open
        source = self.source
        clock = stats.cpu_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            requests.append(source.request_id)
            ends.append(0)
            open_spans.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()

        return traced

    def calls(self, lo: int = 0, hi: int | None = None) -> Counter:
        """Span count per name over spans ``lo:hi``."""
        counts = Counter(self.name_id[lo:hi])
        return Counter({self.names[i]: n for i, n in counts.items()})

    def self_ns_by_name(self, lo: int = 0, hi: int | None = None) -> Counter:
        """Self time per span name over spans ``lo:hi``.

        The range must hold whole span trees (every parent of a span in
        it is in it too), as the slices between two pump turns do.
        """
        hi = len(self) if hi is None else hi
        own = self_times(self.start[lo:hi], self.end[lo:hi], [
            p - lo if p >= 0 else -1 for p in self.parent[lo:hi]
        ])
        totals: Counter = Counter()
        names = self.names
        for name_id, ns in zip(self.name_id[lo:hi], own):
            totals[names[name_id]] += ns
        return totals

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if len(self) else 0
        with path.open("w") as out:
            for i in range(len(self)):
                out.write(json.dumps({
                    "span": i,
                    "name": self.names[self.name_id[i]],
                    "start_ns": self.start[i] - origin,
                    "end_ns": self.end[i] - origin,
                    "parent": self.parent[i],
                    "request": self.request[i],
                }) + "\n")


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span ``i``'s parent, or -1; a parent
    always precedes its children. Children run inside their parent, so
    their durations are exactly the part of the parent they cover.
    """
    own = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    return own


@contextmanager
def installed(recorder: SpanRecorder, targets=TARGETS):
    """Wrap every target with ``recorder`` and restore them on exit."""
    originals = []
    try:
        for module_name, class_name, attribute, span_name in targets:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = vars(owner)[attribute]
            if isinstance(original, classmethod):
                patched = classmethod(recorder.wrap(original.__func__, span_name))
            elif isinstance(original, property):
                patched = property(recorder.wrap(original.fget, span_name))
            else:
                patched = recorder.wrap(original, span_name)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, patched)
        yield recorder
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
