"""The benchmark's workloads and the drivers that run them.

Everything here talks to the stack only through its public API:
``AlphaEndpoint.connect/send/on_packet/poll/next_deadline`` and
``RelayEngine.handle``. The workload seed is consumed here; the stack
sees only the payloads, loss draws and endpoint seeds derived from it.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter, deque
from dataclasses import dataclass, replace

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import PacketType, decode_packet, peek_type
from repro.core.relay import RelayEngine
from repro.crypto.hashes import OpCounter, get_hash
from repro.obs import Observability

from perf.stats import cpu_ns

SENDER = "s"
RECEIVER = "v"
#: Bytes of the payload pool every message is cut from.
_POOL = 1 << 16
#: Message-index prefix carried in every payload (the delivery check).
_INDEX_BYTES = 8
#: Queued packets one pump turn delivers at most.
_TURN_PACKETS = 64
#: Messages in the recorded flood trace.
_FLOOD_MESSAGES = 1000


@dataclass(frozen=True)
class Workload:
    """One set of inputs: a channel configuration and a traffic shape."""

    name: str
    mode: Mode
    reliability: ReliabilityMode
    batch: int
    max_outstanding: int
    #: Message size in bytes.
    size: int
    #: Messages in flight: the closed loop sends the next message only
    #: when one of these is delivered.
    window: int
    #: Messages (genuine messages for the flood) in the fixed window the
    #: traced run measures, so its counts repeat exactly at one seed.
    trace_messages: int
    #: Seeded loss on every packet the pump enqueues after set-up.
    loss: float = 0.0
    chain_length: int = 2048
    relays: int = 3
    #: Replay a recorded trace through bare relays instead of endpoints.
    flood: bool = False

    def endpoint_config(self) -> EndpointConfig:
        return EndpointConfig(
            mode=self.mode,
            reliability=self.reliability,
            batch_size=self.batch,
            max_outstanding=self.max_outstanding,
            chain_length=self.chain_length,
        )


#: Why each workload exists is in BENCHMARK.json and perf/README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="base-64B-3hop",
            mode=Mode.BASE,
            reliability=ReliabilityMode.UNRELIABLE,
            batch=1,
            max_outstanding=1,
            size=64,
            window=1,
            trace_messages=2048,
        ),
        Workload(
            name="merkle-1KiB-bulk",
            mode=Mode.MERKLE,
            reliability=ReliabilityMode.RELIABLE,
            batch=64,
            max_outstanding=4,
            size=1024,
            window=256,
            trace_messages=4096,
        ),
        Workload(
            name="cumulative-lossy",
            mode=Mode.CUMULATIVE,
            reliability=ReliabilityMode.RELIABLE,
            batch=8,
            # One exchange at a time, on chains no run exhausts: with
            # pipelining, or across a rekey, this loss rate makes the
            # library lose messages (perf/README.md, "Findings").
            max_outstanding=1,
            size=256,
            window=8,
            loss=0.03,
            chain_length=32768,
            trace_messages=2048,
        ),
        Workload(
            name="relay-forge-flood",
            mode=Mode.BASE,
            reliability=ReliabilityMode.UNRELIABLE,
            batch=1,
            max_outstanding=1,
            size=64,
            window=1,
            trace_messages=4000,
            relays=1,
            flood=True,
        ),
    )
}


class Stall(RuntimeError):
    """The pump stopped making progress with work outstanding."""


class BenchClock:
    """The benchmark clock (``stats.cpu_ns``) with pauses cut out.

    The drivers stamp sends, deliveries and queue entries with it, so
    the calibration run between two slices never lands inside a
    latency.
    """

    def __init__(self) -> None:
        self._paused_ns = 0
        self._pause_start = 0

    def now(self) -> int:
        return cpu_ns() - self._paused_ns

    def pause(self) -> None:
        self._pause_start = cpu_ns()

    def resume(self) -> None:
        self._paused_ns += cpu_ns() - self._pause_start


class Pump:
    """Zero-latency FIFO between two endpoints through a chain of relays.

    The semantics of ``transports.memory.MemoryNetwork.run`` — poll the
    endpoints when the queue is empty, deliver the queue in FIFO order
    through the relays — plus seeded loss on every enqueued packet and a
    virtual clock that jumps to the next endpoint deadline when the pump
    goes quiet. Replies travel the relays in reverse order.
    """

    def __init__(
        self,
        sender: AlphaEndpoint,
        receiver: AlphaEndpoint,
        relays: list,
        clock: BenchClock,
        loss_seed: str,
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.relays = relays
        self._endpoints = {sender.name: sender, receiver.name: receiver}
        self._paths = {
            (sender.name, receiver.name): list(relays),
            (receiver.name, sender.name): list(reversed(relays)),
        }
        self._clock = clock
        self.queue: deque = deque()
        self.now = 0.0
        self.loss = 0.0
        self._loss_rng = random.Random(loss_seed)
        #: Called with each delivered payload and with each terminal
        #: exchange failure, right after the call that produced it.
        self.on_deliver = None
        self.on_failure = None
        #: Message index or packet id of the work in hand (span tags).
        self.request_id = 0
        self.packets = 0
        self.wire_bytes = 0
        self.queue_depth_max = 0
        #: Enqueue-to-dequeue waits in ns, collected when set to a list.
        self.waits: list | None = None

    def step(self) -> bool:
        """One turn; False when nothing happened.

        Endpoints are polled only when the queue is empty, exactly as in
        ``MemoryNetwork.run``; a turn then delivers at most
        ``_TURN_PACKETS`` queued packets, so the drivers can stop between
        turns without changing the order of any call.
        """
        now = self.now
        progressed = False
        queue = self.queue
        if not queue:
            for endpoint in self._endpoints.values():
                out = endpoint.poll(now)
                if out.replies:
                    progressed = True
                self._absorb(endpoint, out)
        waits = self.waits
        clock = self._clock
        for _ in range(min(len(queue), _TURN_PACKETS)):
            progressed = True
            src, dst, data, packet_id, queued_at = queue.popleft()
            if waits is not None:
                waits.append(clock.now() - queued_at)
            self.request_id = packet_id
            for relay in self._paths[(src, dst)]:
                if not relay.handle(data, src, dst, now).forward:
                    break
            else:
                endpoint = self._endpoints[dst]
                self._absorb(endpoint, endpoint.on_packet(data, src, now))
        # The relays' applications take the payloads they verified in
        # transit; left alone, the engines would keep every one.
        for relay in self.relays:
            relay.drain_extracted()
        return progressed

    def advance(self) -> bool:
        """Jump the virtual clock to the earliest endpoint deadline."""
        deadlines = [
            d
            for d in (ep.next_deadline() for ep in self._endpoints.values())
            if d is not None
        ]
        if not deadlines:
            return False
        self.now = max(self.now, min(deadlines))
        return True

    def settle(self, max_turns: int = 100_000) -> None:
        """Run turns until the pump is quiet (no clock jumps)."""
        for _ in range(max_turns):
            if not self.step():
                return
        raise Stall("pump failed to quiesce")

    def enqueue(self, src: str, dst: str, data: bytes) -> None:
        self.packets += 1
        self.wire_bytes += len(data)
        if self.loss and self._loss_rng.random() < self.loss:
            return
        queue = self.queue
        queue.append((src, dst, data, self.packets, self._clock.now()))
        if len(queue) > self.queue_depth_max:
            self.queue_depth_max = len(queue)

    def _absorb(self, endpoint: AlphaEndpoint, out) -> None:
        for dst, payload in out.replies:
            self.enqueue(endpoint.name, dst, payload)
        for _, message in out.delivered:
            self.on_deliver(message.message)
        for _, failure in out.failures:
            self.on_failure(failure)


class Payloads:
    """Seeded message bytes: an 8-byte index, then a slice of a pool."""

    def __init__(self, seed: int, size: int) -> None:
        if size <= _INDEX_BYTES:
            raise ValueError(f"messages must be longer than {_INDEX_BYTES} bytes")
        self.size = size
        self._pool = random.Random(f"{seed}:payload").randbytes(_POOL + size)

    def __call__(self, index: int) -> bytes:
        offset = (index * 2654435761) % _POOL
        return index.to_bytes(_INDEX_BYTES, "big") + self._pool[
            offset : offset + self.size - _INDEX_BYTES
        ]

    @staticmethod
    def index_of(message: bytes) -> int:
        return int.from_bytes(message[:_INDEX_BYTES], "big")


class ClosedLoop:
    """Keeps ``window`` messages in flight from sender to receiver.

    Each delivery is checked against the bytes sent (exactly once, and
    in order on loss-free workloads) and immediately refills its slot.
    Violations are counted by name in :attr:`errors`.
    """

    def __init__(self, pump: Pump, workload: Workload, seed: int, clock: BenchClock):
        self.pump = pump
        self.window = workload.window
        self.payload = Payloads(seed, workload.size)
        # Selective-repeat recovery delivers a batch out of order.
        self.check_order = workload.loss == 0
        self._clock = clock
        self._sent_at: dict[int, int] = {}
        self._next_expected = 0
        self.refilling = True
        self.sent = 0
        self.count = 0
        #: Exchanges reported failed although every message arrived.
        self.false_failures = 0
        self.errors: Counter = Counter()
        #: Send-to-delivery latencies (ns) since the caller last reset it.
        self.latencies = array("q")
        pump.on_deliver = self._delivered
        pump.on_failure = self._failed

    @property
    def in_flight(self) -> int:
        return len(self._sent_at)

    @property
    def attempted(self) -> int:
        return self.sent

    offered = attempted

    @property
    def delivered(self) -> int:
        return self.count

    @property
    def judged(self) -> int:
        """Packets the first relay on the path has judged."""
        stats = self.pump.relays[0].stats
        return stats.get("forwarded", 0) + stats.get("dropped", 0)

    @property
    def buffered_bytes(self) -> int:
        return max(relay.buffered_bytes for relay in self.pump.relays)

    @property
    def associations(self) -> int:
        return self.pump.relays[0].association_count()

    def tallies(self) -> dict[str, int]:
        pump = self.pump
        calls = drops = 0
        for relay in pump.relays:
            drops += relay.stats.get("dropped", 0)
            calls += relay.stats.get("forwarded", 0) + relay.stats.get("dropped", 0)
        resilience = [pump.sender.resilience_stats(), pump.receiver.resilience_stats()]
        return {
            "messages": self.count,
            "relay_calls": calls,
            "relay_drops": drops,
            "wire_bytes": pump.wire_bytes,
            "retransmits": sum(r.retransmits for r in resilience),
            "timeouts": sum(r.retransmits_timeout for r in resilience),
            "nacks_suppressed": sum(r.nack_suppressed for r in resilience),
            "false_failures": self.false_failures,
        }

    def refill(self) -> None:
        sent_at = self._sent_at
        while self.refilling and len(sent_at) < self.window:
            index = self.sent
            message = self.payload(index)
            self.pump.request_id = index
            sent_at[index] = self._clock.now()
            self.pump.sender.send(RECEIVER, message)
            self.sent += 1

    def work(self) -> None:
        """One unit of progress: a pump turn, or a clock jump."""
        if self.pump.step():
            return
        if not self.in_flight:
            raise Stall("nothing in flight")
        if not self.pump.advance():
            raise Stall(f"{self.in_flight} messages in flight and no timer armed")

    def drain(self, max_units: int = 1_000_000) -> None:
        """Stop refilling and run until every sent message is resolved."""
        self.refilling = False
        for _ in range(max_units):
            if not self.in_flight:
                return
            self.work()
        raise Stall("drain did not finish")

    def _delivered(self, message: bytes) -> None:
        delivered_at = self._clock.now()
        index = Payloads.index_of(message)
        sent_at = self._sent_at.pop(index, None)
        if sent_at is None:
            self.errors["duplicate-or-unknown-delivery"] += 1
            return
        if message != self.payload(index):
            self.errors["delivered-bytes-differ"] += 1
        if self.check_order and index != self._next_expected:
            self.errors["out-of-order-delivery"] += 1
        self._next_expected = index + 1
        self.count += 1
        self.latencies.append(delivered_at - sent_at)
        self.refill()

    def _failed(self, failure) -> None:
        undelivered = 0
        for message in failure.messages:
            if self._sent_at.pop(Payloads.index_of(message), None) is not None:
                undelivered += 1
        if undelivered:
            self.errors[f"undelivered:{failure.reason}"] += undelivered
            self.refill()
        else:
            # The receiver has every message; only the acknowledgment
            # leg died. A false negative, not a lost message.
            self.false_failures += 1


def build_stack(
    workload: Workload,
    seed: int,
    clock: BenchClock,
    counter: OpCounter,
    observe: bool = False,
    relays: list | None = None,
) -> Pump:
    """Endpoints, their chains, and a handshake every relay observed."""
    config = workload.endpoint_config()
    obs = Observability() if observe else None
    sender = AlphaEndpoint(SENDER, config, seed=f"{SENDER}:{seed}", counter=counter, obs=obs)
    receiver = AlphaEndpoint(
        RECEIVER, config, seed=f"{RECEIVER}:{seed}", counter=counter, obs=obs
    )
    if relays is None:
        relays = [
            RelayEngine(get_hash(config.hash_name, counter), obs=obs, name=f"r{hop}", hop=hop)
            for hop in range(1, workload.relays + 1)
        ]
    pump = Pump(sender, receiver, relays, clock, loss_seed=f"{seed}:loss")
    peer, hs1 = sender.connect(RECEIVER, now=pump.now)
    pump.enqueue(SENDER, peer, hs1)
    pump.settle()
    if not sender.association(RECEIVER).established:
        raise Stall("handshake did not complete")
    pump.loss = workload.loss
    return pump


class _Forward:
    forward = True


class _Recorder:
    """Stands in for a relay and keeps every packet that passes it."""

    def __init__(self) -> None:
        self.packets: list[tuple[bytes, str, str]] = []

    def handle(self, data: bytes, src: str, dst: str, now: float):
        self.packets.append((data, src, dst))
        return _Forward

    def drain_extracted(self) -> list:
        return []


#: Packet kinds of a flood trace.
GENUINE, GENUINE_S2, FORGED = 0, 1, 2


def record_flood_trace(workload: Workload, seed: int) -> list[tuple[bytes, str, str, int]]:
    """Record a BASE exchange trace and put a forged S2 before each genuine one.

    The forged copy re-encodes the genuine S2 with one message bit
    flipped, so only its MAC check can tell them apart.
    """
    clock = BenchClock()
    recorder = _Recorder()
    pump = build_stack(workload, seed, clock, OpCounter(), relays=[recorder])
    loop = ClosedLoop(pump, workload, seed, clock)
    loop.refill()
    while loop.count < _FLOOD_MESSAGES:
        loop.work()
    loop.drain()
    if loop.errors:
        raise Stall(f"flood trace recording failed: {dict(loop.errors)}")
    rng = random.Random(f"{seed}:forge")
    trace = []
    for data, src, dst in recorder.packets:
        if peek_type(data) is PacketType.S2:
            packet = decode_packet(data, get_hash("sha1").digest_size)
            flipped = bytearray(packet.message)
            flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
            trace.append((replace(packet, message=bytes(flipped)).encode(), src, dst, FORGED))
            trace.append((data, src, dst, GENUINE_S2))
        else:
            trace.append((data, src, dst, GENUINE))
    return trace


class FloodReplay:
    """Replays a flood trace through one fresh ``RelayEngine`` per pass.

    ``count`` is genuine S2s forwarded (the flood's messages); every
    forged packet forwarded and every genuine packet dropped is an
    error.
    """

    def __init__(
        self,
        trace: list[tuple[bytes, str, str, int]],
        counter: OpCounter,
        clock: BenchClock,
        observe: bool = False,
    ) -> None:
        self.trace = trace
        self.counter = counter
        self._clock = clock
        self._observe = observe
        self.index = 0
        self.passes = 0
        self._new_pass()
        self.request_id = 0
        self.judged = 0
        self.dropped = 0
        self.wire_bytes = 0
        self.genuine_offered = 0
        self.genuine_forwarded = 0
        self.count = 0
        self.errors: Counter = Counter()
        #: Per-packet ``handle`` latencies (ns).
        self.latencies = array("q")
        #: The replay has no queue: a packet waits only for its hand-off
        #: to the relay. Collected (ns) when set to a list, as for a pump.
        self.waits: list | None = None
        self.queue_depth_max = 1

    @property
    def attempted(self) -> int:
        return self.judged

    @property
    def offered(self) -> int:
        return self.genuine_offered

    @property
    def delivered(self) -> int:
        return self.genuine_forwarded

    @property
    def buffered_bytes(self) -> int:
        return self.engine.buffered_bytes

    @property
    def associations(self) -> int:
        return self.engine.association_count()

    def tallies(self) -> dict[str, int]:
        return {
            "messages": self.count,
            "relay_calls": self.judged,
            "relay_drops": self.dropped,
            "wire_bytes": self.wire_bytes,
        }

    def _new_pass(self) -> None:
        obs = Observability() if self._observe else None
        self.engine = RelayEngine(get_hash("sha1", self.counter), obs=obs, name="r1", hop=1)
        self.passes += 1

    def work(self) -> None:
        """Judge the next packet of the trace."""
        clock = self._clock
        waits = self.waits
        if waits is not None:
            taken = clock.now()
        data, src, dst, kind = self.trace[self.index]
        self.request_id = self.index
        start = clock.now()
        if waits is not None:
            waits.append(start - taken)
        forward = self.engine.handle(data, src, dst, 0.0).forward
        self.latencies.append(clock.now() - start)
        self.judged += 1
        self.wire_bytes += len(data)
        if kind == FORGED:
            if forward:
                self.errors["forged-forwarded"] += 1
            else:
                self.dropped += 1
        else:
            self.genuine_offered += 1
            if not forward:
                self.dropped += 1
                self.errors["genuine-dropped"] += 1
            else:
                self.genuine_forwarded += 1
                self.count += kind == GENUINE_S2
        self.index += 1
        if self.index == len(self.trace):
            self.index = 0
            self._new_pass()
