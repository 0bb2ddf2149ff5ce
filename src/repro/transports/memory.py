"""Synchronous in-memory transport.

A :class:`MemoryNetwork` connects any number of endpoints (and optional
relay engines between pairs) in one process with a manually advanced
clock. Unlike the discrete-event simulator, delivery is immediate and
deterministic in FIFO order, with an optional ``link`` hook that drops
or rewrites datagrams — the minimal harness for protocol logic, REPL
experiments, and doctests.

It has one cadence: :meth:`MemoryNetwork.run` polls every endpoint
after each datagram it takes off the queue, so a timer turn can land
between any two packets, as it can under an event loop with latency
(for instance between an A1 and the S2s it releases).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.endpoint import AlphaEndpoint
from repro.core.relay import RelayEngine


@dataclass
class MemoryNetwork:
    """A zero-latency full mesh between registered endpoints.

    ``link(src, dst, payload) -> bytes | None`` sees every datagram as
    it leaves the queue, in FIFO order, before any relay: ``None`` drops
    it, other bytes replace it — the hook tests use to script loss and
    damage.
    """

    link: Callable[[str, str, bytes], bytes | None] | None = None
    now: float = 0.0
    _endpoints: dict[str, AlphaEndpoint] = field(default_factory=dict)
    #: Relay engines inspecting traffic between a named pair, in order.
    _relay_paths: dict[tuple[str, str], list[RelayEngine]] = field(default_factory=dict)
    #: ``(src, dst, payload)`` of every datagram in flight.
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
        """Install relay engines on the path between a and b, listed
        from a's side: traffic from b crosses them in reverse order."""
        self._relay_paths[(a, b)] = list(engines)
        self._relay_paths[(b, a)] = list(reversed(engines))

    def connect(self, initiator: str, responder: str) -> None:
        """Run the HS1/HS2 handshake between two registered endpoints."""
        _, hs1 = self._endpoints[initiator].connect(responder, now=self.now)
        self._queue.append((initiator, responder, hs1))
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

    def run(self, max_steps: int = 10_000) -> None:
        """Poll every endpoint, deliver the next queued datagram, and
        repeat until a round of polls leaves nothing in flight."""
        for _ in range(max_steps):
            for name, endpoint in self._endpoints.items():
                self._absorb(name, endpoint.poll(self.now))
            if not self._queue:
                return
            src, dst, payload = self._queue.popleft()
            if self.link is not None:
                payload = self.link(src, dst, payload)
                if payload is None:
                    continue
            for engine in self._relay_paths.get((src, dst), ()):
                if not engine.handle(payload, src, dst, self.now).forward:
                    self.dropped_by_relay += 1
                    break
            else:
                receiver = self._endpoints.get(dst)
                if receiver is not None:
                    self._absorb(dst, receiver.on_packet(payload, src, self.now))
        raise RuntimeError("memory network failed to quiesce")

    def _absorb(self, name: str, out) -> None:
        self._queue.extend((name, dst, payload) for dst, payload in out.replies)
        self.delivered.extend((name, m.message) for _, m in out.delivered)
        self.reports.extend(out.reports)
        self.failures.extend(out.failures)

    def received_by(self, name: str) -> list[bytes]:
        return [m for n, m in self.delivered if n == name]
