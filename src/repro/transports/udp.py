"""UDP transport: ALPHA over real sockets.

Runs one :class:`~repro.core.endpoint.AlphaEndpoint` on a UDP socket
using :mod:`selectors` (no asyncio, no threads). Peer names map to
``(host, port)`` addresses via an explicit directory — ALPHA identities
are hash chains, not addresses, so the mapping is pure transport
plumbing (and may change mid-association, e.g. after a HIP-style
locator update). Each :meth:`UdpTransport.pump` turn is one select,
a bounded read and one endpoint poll.

The test suite exercises this over loopback; a real deployment would
bind it to a mesh interface. Relays would run
:class:`~repro.core.relay.RelayEngine` inside a packet-forwarding hook
of their OS — out of scope here (DESIGN.md substitution table).
"""

from __future__ import annotations

import selectors
import socket

from repro.core.endpoint import AlphaEndpoint
from repro.core.resilience import ExchangeFailed, ResilienceStats
from repro.obs import EventKind
from repro.obs.telemetry import live_clock

_MAX_DATAGRAM = 65507

#: Per-turn read budget: a datagram flood can make the socket readable
#: forever, and an unbounded drain would starve the endpoint's timers
#: (retransmits, handshake deadlines). Excess datagrams stay in the
#: kernel buffer for the next turn.
MAX_DATAGRAMS_PER_TURN = 64


class UdpTransport:
    """Binds an endpoint to a UDP socket and pumps it."""

    def __init__(
        self,
        endpoint: AlphaEndpoint,
        bind: tuple[str, int] = ("127.0.0.1", 0),
        clock=live_clock,
    ) -> None:
        self.endpoint = endpoint
        #: The endpoint's observability context (tracer + registry);
        #: disabled unless the endpoint enabled it.
        self.obs = endpoint.obs
        self._clock = clock
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._socket.bind(bind)
        self._socket.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._socket, selectors.EVENT_READ)
        # name -> (host, port); address -> name for inbound mapping.
        self._peer_addresses: dict[str, tuple[str, int]] = {}
        self._names_by_address: dict[tuple[str, int], str] = {}
        self.received: list[tuple[str, bytes]] = []
        self.reports: list = []
        self.failures: list = []
        #: Transport-level counters: malformed datagrams, unknown-source
        #: drops, unroutable sends.
        self.stats = ResilienceStats()
        self.closed = False

    @property
    def address(self) -> tuple[str, int]:
        return self._socket.getsockname()

    def register_peer(self, name: str, address: tuple[str, int]) -> None:
        """Teach the transport where a named peer currently lives."""
        old = self._peer_addresses.get(name)
        if old is not None:
            self._names_by_address.pop(old, None)
        self._peer_addresses[name] = address
        self._names_by_address[address] = name

    def connect(self, peer: str) -> None:
        if peer not in self._peer_addresses:
            raise LookupError(f"no address registered for {peer!r}")
        _, payload = self.endpoint.connect(peer, now=self._clock())
        self._transmit(peer, payload)

    def send(self, peer: str, message: bytes) -> None:
        self.endpoint.send(peer, message)
        self.pump(0.0)

    def pump(self, timeout_s: float = 0.05) -> int:
        """One IO iteration: read ready datagrams, drive the engine.

        Returns the number of datagrams processed. Call in a loop (or
        from :meth:`run_until`) — this is the sans-IO event loop turn.
        """
        if self.closed:
            raise RuntimeError("transport is closed")
        processed = 0
        ready = self._selector.select(timeout_s)
        while ready and processed < MAX_DATAGRAMS_PER_TURN:
            try:
                data, address = self._socket.recvfrom(_MAX_DATAGRAM)
            except BlockingIOError:
                break
            processed += 1
            src = self._names_by_address.get(address)
            if src is None:
                # Unknown sender: not in the peer directory. Common
                # mid-association (locator update / NAT rebind before
                # register_peer catches up) — count it so the operator
                # can see the directory lagging instead of losing the
                # traffic invisibly.
                self.stats.unknown_source_drops += 1
                if self.obs.enabled:
                    self.obs.tracer.emit(
                        self._clock(), self.endpoint.name,
                        EventKind.PARSE_DROP,
                        info=f"udp unknown-source {address[0]}:{address[1]}",
                    )
                    self.obs.registry.counter("udp.unknown_source_drops").inc()
                continue
            if self.obs.enabled:
                self.obs.tracer.emit(
                    self._clock(), self.endpoint.name, EventKind.UDP_RX,
                    info=f"src={src} bytes={len(data)}",
                )
                self.obs.registry.counter("udp.datagrams_rx").inc()
            try:
                out = self.endpoint.on_packet(data, src, self._clock())
            except Exception:
                # A malformed or hostile datagram must never take the
                # event loop down: drop it, count it, keep pumping.
                # (The endpoint already swallows clean PacketErrors;
                # this guards against parse bugs deeper in the stack.)
                self.stats.malformed_drops += 1
                self.endpoint.note_corrupt_arrival(src)
                if self.obs.enabled:
                    self.obs.tracer.emit(
                        self._clock(), self.endpoint.name,
                        EventKind.PARSE_DROP, info=f"udp src={src}",
                    )
                    self.obs.registry.counter("udp.malformed_drops").inc()
                continue
            self._dispatch(out)
        self._dispatch(self.endpoint.poll(self._clock()))
        return processed

    def run_until(self, predicate, timeout_s: float = 5.0, step_s: float = 0.02) -> bool:
        """Pump until ``predicate()`` is true or the deadline passes."""
        deadline = self._clock() + timeout_s
        while self._clock() < deadline:
            self.pump(step_s)
            if predicate():
                return True
        return predicate()

    def close(self) -> None:
        if not self.closed:
            self._selector.unregister(self._socket)
            self._socket.close()
            self._selector.close()
            self.closed = True

    def __enter__(self) -> "UdpTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------

    def resilience_stats(self) -> ResilienceStats:
        """Transport counters merged with the endpoint's aggregate."""
        total = ResilienceStats()
        total.merge(self.stats)
        total.merge(self.endpoint.resilience_stats())
        return total

    def _dispatch(self, out) -> None:
        for peer, payload in out.replies:
            self._transmit(peer, payload)
        for peer, message in out.delivered:
            self.received.append((peer, message.message))
        self.reports.extend(out.reports)
        self.failures.extend(out.failures)

    def _transmit(self, peer: str, payload: bytes) -> None:
        address = self._peer_addresses.get(peer)
        if address is None:
            # No registered address: without a counter and a failure
            # record this is a silent black hole — the protocol keeps
            # retransmitting into it until the retry cap declares the
            # peer dead, with nothing pointing at the real cause.
            self.stats.unroutable_drops += 1
            # Same (peer, record) shape the endpoint's failures use, so
            # callers watching ``transport.failures`` see one stream.
            self.failures.append(
                (
                    peer,
                    ExchangeFailed(
                        peer=peer, assoc_id=0, seq=0, retries=0,
                        reason="no-peer-address", messages=[payload],
                    ),
                )
            )
            if self.obs.enabled:
                self.obs.tracer.emit(
                    self._clock(), self.endpoint.name, EventKind.PARSE_DROP,
                    info=f"udp no-address dst={peer} bytes={len(payload)}",
                )
                self.obs.registry.counter("udp.unroutable_drops").inc()
            return
        try:
            self._socket.sendto(payload, address)
        except OSError:
            return  # transient send failure; retransmission recovers
        if self.obs.enabled:
            self.obs.tracer.emit(
                self._clock(), self.endpoint.name, EventKind.UDP_TX,
                info=f"dst={peer} bytes={len(payload)}",
            )
            self.obs.registry.counter("udp.datagrams_tx").inc()
