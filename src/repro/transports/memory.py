"""Synchronous in-memory transport.

A :class:`MemoryNetwork` connects any number of endpoints (and optional
relay engines between pairs) in one process with a manually advanced
clock. Unlike the discrete-event simulator, delivery is immediate and
deterministic in FIFO order, with optional scripted loss — the minimal
harness for protocol logic, REPL experiments, and doctests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.endpoint import AlphaEndpoint
from repro.core.relay import RelayEngine


@dataclass
class _InFlight:
    src: str
    dst: str
    payload: bytes


@dataclass
class MemoryNetwork:
    """A zero-latency full mesh between registered endpoints.

    ``drop_filter(src, dst, payload) -> bool`` returning True discards
    the packet — the hook tests use to script loss.
    """

    drop_filter: Callable[[str, str, bytes], bool] | None = None
    now: float = 0.0
    _endpoints: dict[str, AlphaEndpoint] = field(default_factory=dict)
    #: Relay engines inspecting traffic between a named pair, in order.
    _relay_paths: dict[tuple[str, str], list[RelayEngine]] = field(default_factory=dict)
    _queue: deque = field(default_factory=deque)
    delivered: list[tuple[str, bytes]] = field(default_factory=list)
    reports: list = field(default_factory=list)
    #: ``(peer, ExchangeFailed)`` of every exchange or queue that failed.
    failures: list = field(default_factory=list)
    dropped_by_relay: int = 0

    def add_endpoint(self, endpoint: AlphaEndpoint) -> AlphaEndpoint:
        if endpoint.name in self._endpoints:
            raise ValueError(f"duplicate endpoint {endpoint.name!r}")
        self._endpoints[endpoint.name] = endpoint
        return endpoint

    def add_relays(self, a: str, b: str, engines: list[RelayEngine]) -> None:
        """Install relay engines on the (unordered) path between a and b."""
        self._relay_paths[(a, b)] = list(engines)
        self._relay_paths[(b, a)] = list(engines)

    def connect(self, initiator: str, responder: str) -> None:
        """Run the HS1/HS2 handshake between two registered endpoints."""
        _, hs1 = self._endpoints[initiator].connect(responder, now=self.now)
        self._enqueue(initiator, responder, hs1)
        self.run()

    def send(self, src: str, dst: str, message: bytes) -> None:
        self._endpoints[src].send(dst, message)
        self.run()

    def advance(self, seconds: float) -> None:
        """Move the clock (drives retransmission timers) and settle."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self.now += seconds
        self.run()

    # -- internals ---------------------------------------------------------------

    def _enqueue(self, src: str, dst: str, payload: bytes) -> None:
        self._queue.append(_InFlight(src, dst, payload))

    def _relays_between(self, src: str, dst: str) -> list[RelayEngine]:
        return self._relay_paths.get((src, dst), [])

    def run(self, max_steps: int = 10_000) -> None:
        """Deliver queued packets and poll endpoints until quiescent."""
        steps = 0
        while steps < max_steps:
            steps += 1
            progressed = False
            # Poll everyone for timer-driven output.
            for endpoint in self._endpoints.values():
                out = endpoint.poll(self.now)
                for dst, payload in out.replies:
                    self._enqueue(endpoint.name, dst, payload)
                    progressed = True
                self._absorb(endpoint.name, out)
            while self._queue:
                item = self._queue.popleft()
                progressed = True
                if self.drop_filter is not None and self.drop_filter(
                    item.src, item.dst, item.payload
                ):
                    continue
                forwarded = True
                for engine in self._relays_between(item.src, item.dst):
                    if not engine.handle(item.payload, item.src, item.dst, self.now).forward:
                        forwarded = False
                        self.dropped_by_relay += 1
                        break
                if not forwarded:
                    continue
                receiver = self._endpoints.get(item.dst)
                if receiver is None:
                    continue
                out = receiver.on_packet(item.payload, item.src, self.now)
                for dst, payload in out.replies:
                    self._enqueue(item.dst, dst, payload)
                self._absorb(item.dst, out)
            if not progressed:
                return
        raise RuntimeError("memory network failed to quiesce")

    def _absorb(self, name: str, out) -> None:
        for peer, message in out.delivered:
            self.delivered.append((name, message.message))
        self.reports.extend(out.reports)
        self.failures.extend(out.failures)

    def received_by(self, name: str) -> list[bytes]:
        return [m for n, m in self.delivered if n == name]
