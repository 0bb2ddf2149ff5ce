"""The signer's protocol engine (sans-IO).

One :class:`SignerSession` drives one simplex channel: it owns the
signature chain, runs the S1 → A1 → S2 (→ A2) exchange of paper
Figures 2 and 3, and implements all three modes (base, ALPHA-C,
ALPHA-M) plus the reliable-delivery machinery.

Sans-IO contract: the session never touches the network. Callers submit
messages, feed received packets into ``handle_a1`` / ``handle_a2``, and
drain outgoing packets from ``poll(now)``. Time only enters through the
``now`` arguments, so the engine runs identically under the discrete-
event simulator, an in-memory pipe, or a real socket loop.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from repro.core.acktree import verify_ack_opening
from repro.core.hashchain import ChainElement, ChainVerifier, HashChain, new_element
from repro.core.linkhealth import LinkHealth
from repro.core.merkle import MerkleTree, MerkleVerifyCache, leaves_per_tree
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import A1Packet, A2Packet, AckVerdict, S1Packet, S2Packet
from repro.core.resilience import (
    RTO_FLOOR_S,
    ExchangeFailed,
    ResilienceStats,
    RttEstimator,
)
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import HashFunction
from repro.obs import OBS_OFF, EventKind, Observability
from repro.obs.metrics import read_fields

#: Fixed strings distinguishing pre-acks from pre-nacks
#: (paper Section 3.2.2: "e.g., 0 and 1").
PRE_ACK_TAG = b"1"
PRE_NACK_TAG = b"0"

#: Nack-storm damper (PROTOCOL.md §12): token-bucket capacity for
#: nack-provoked retransmit events per exchange. A corruption storm
#: turns every honored nack into an instantly re-damaged resend whose
#: refreshed deadline starves the timeout path; the bucket admits short
#: nack bursts at full speed and then suppresses with exponentially
#: growing windows.
NACK_BUCKET = 4
#: Quiet time (in RTOs) that refills one bucket token.
NACK_REFILL_RTOS = 1.0
#: RTO escape hatch: consecutive timeouts pinned at ``rto_max_s``
#: before the signer probes the link with the bare S1 (the verifier
#: repeats its A1 verbatim) instead of blindly resending the full
#: batch.
RTO_PROBE_AFTER = 2
#: Unanswered probes before the exchange fails terminally (reason
#: ``rto-escape``) and dead-peer handling takes over.
PROBE_BUDGET = 2
#: Registry counters read from the signer's ``stats`` block: the one
#: place the signer counts these events.
STATS_COUNTERS = {
    "signer.retransmits": "retransmits",
    "signer.exchanges_done": "exchanges_completed",
    "signer.exchanges_failed": "exchanges_failed",
    "resilience.nack.suppressed": "nack_suppressed",
    "resilience.rto.probes": "escape_probes",
    "resilience.rto.probe_recoveries": "probe_recoveries",
    "resilience.failover.represented": "s1_representations",
}


@dataclass(frozen=True)
class ChannelConfig:
    """Tunables of one simplex channel."""

    mode: Mode = Mode.BASE
    reliability: ReliabilityMode = ReliabilityMode.UNRELIABLE
    #: Messages per exchange for ALPHA-C / ALPHA-M (base mode is 1).
    batch_size: int = 8
    #: Merkle roots per S1 in combined C+M mode (Section 3.3.2, last
    #: paragraph): more roots shrink every tree, trading S1 size for
    #: shorter {Bc} paths in each S2.
    trees_per_s1: int = 1
    #: Concurrent S1/A1/S2 exchanges in flight. 1 is the paper's basic
    #: strictly sequential scheme; the role binding "enables a signer to
    #: send a new S1 packet immediately after receiving the A1 packet"
    #: (Section 3.2.1), and pipelining takes that to its conclusion —
    #: the next exchange starts while earlier ones still await their
    #: S2 acks, hiding the interlock RTT.
    max_outstanding: int = 1
    #: Initial retransmission timeout; with ``adaptive_rto`` it only
    #: seeds the estimator and measured RTTs take over.
    retransmit_timeout_s: float = 0.25
    max_retries: int = 6
    #: RFC 6298-style SRTT/RTTVAR timeout adaptation with exponential
    #: (x2) backoff. Disabled, every retry fires after a fixed
    #: ``retransmit_timeout_s`` (the pre-resilience behaviour).
    adaptive_rto: bool = True
    #: RTO ceiling; the floor is ``RTO_FLOOR_S``.
    rto_max_s: float = 10.0
    #: Fractional jitter multiplied onto each backed-off deadline so
    #: synchronized flows don't retransmit in lockstep. 0 disables.
    backoff_jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.trees_per_s1 < 1:
            raise ValueError("need at least one tree per S1")
        if self.retransmit_timeout_s <= 0:
            raise ValueError("retransmit timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max retries must be non-negative")
        if self.max_outstanding < 1:
            raise ValueError("need at least one outstanding exchange")
        if self.rto_max_s < RTO_FLOOR_S:
            raise ValueError(f"rto_max_s must be at least {RTO_FLOOR_S} s")
        if self.backoff_jitter < 0:
            raise ValueError("backoff jitter must be non-negative")

    @property
    def effective_batch(self) -> int:
        return 1 if self.mode is Mode.BASE else self.batch_size


class ExchangeState(enum.Enum):
    AWAIT_A1 = "await-a1"
    AWAIT_A2 = "await-a2"
    DONE = "done"
    FAILED = "failed"


@dataclass
class DeliveryReport:
    """Outcome of one submitted message (reliable channels only)."""

    seq: int
    msg_index: int
    message: bytes
    delivered: bool


@dataclass
class _Exchange:
    seq: int
    mode: Mode
    reliable: bool
    messages: list[bytes]
    s1_element: ChainElement
    key_element: ChainElement
    s1_bytes: bytes
    state: ExchangeState = ExchangeState.AWAIT_A1
    trees: list[MerkleTree] = field(default_factory=list)
    per_tree: int = 0
    # Populated from the A1 packet.
    pre_acks: list[bytes] = field(default_factory=list)
    pre_nacks: list[bytes] = field(default_factory=list)
    amt_root: bytes | None = None
    #: Proven AMT nodes (PROTOCOL.md §14.3), built when the A1 carries
    #: an AMT root; dies with the exchange and is never journaled.
    merkle_cache: MerkleVerifyCache | None = None
    a1_ack_element: ChainElement | None = None
    # Reliability bookkeeping.
    acked: set[int] = field(default_factory=set)
    nacked: set[int] = field(default_factory=set)
    s2_bytes: dict[int, bytes] = field(default_factory=dict)
    deadline: float = 0.0
    retries: int = 0
    ack_key_value: bytes | None = None  # disclosed via A2
    # RTT bookkeeping: when the awaited reply was solicited, and whether
    # the pending round trip is unambiguous (Karn's algorithm — a
    # retransmission poisons the sample).
    sent_at: float = 0.0
    rtt_clean: bool = True
    #: When the exchange's first S1 went out — the delivery-latency
    #: baseline the link-health ledger measures completion against.
    started_at: float = 0.0
    # Nack-storm damper: token bucket plus exponential suppression
    # windows on nack-provoked retransmits (PROTOCOL.md §12).
    nack_tokens: float = 0.0
    nack_refill_at: float = 0.0
    nack_suppress_streak: int = 0
    nack_open_at: float = 0.0
    # RTO escape hatch: consecutive timeouts at the RTO ceiling, and
    # the probe state machine that replaces blind batch resends.
    at_max_streak: int = 0
    probing: bool = False
    probe_sends: int = 0
    probe_sent_at: float = 0.0
    probe_episodes: int = 0
    probe_marker: tuple = ()

    @property
    def message_count(self) -> int:
        return len(self.messages)


class SignerSession:
    """Signing side of one simplex ALPHA channel."""

    def __init__(
        self,
        hash_fn: HashFunction,
        sig_chain: HashChain,
        ack_verifier: ChainVerifier,
        config: ChannelConfig,
        assoc_id: int,
        peer: str = "",
        rng: DRBG | None = None,
        obs: Observability | None = None,
        node: str = "",
        link: LinkHealth | None = None,
    ) -> None:
        self._hash = hash_fn
        self.chain = sig_chain
        self.ack_verifier = ack_verifier
        #: The peer's ack anchor: while the verifier still trusts it, no
        #: A1 was admitted, so no S2 left this session.
        self._ack_anchor = ack_verifier.trusted
        self.config = config
        self.assoc_id = assoc_id
        self.peer = peer
        self._obs = obs if obs is not None else OBS_OFF
        self._node = node or "signer"
        #: Cross-association link ledger this session only writes to
        #: (RTT, delivery latency, damaged replies); it reads the
        #: session's counts from :attr:`stats`. ``None`` keeps every
        #: hook a single predictable branch.
        self.link = link
        # Standalone DRBG (not forked from the endpoint's) so backoff
        # jitter never perturbs the endpoint's cryptographic draws.
        self.rng = rng if rng is not None else DRBG(f"signer-jitter:{assoc_id}")
        self.rtt = RttEstimator(
            initial_rto_s=config.retransmit_timeout_s,
            max_rto_s=config.rto_max_s,
        )
        self.stats = ResilienceStats()
        if self._obs.enabled:
            self._obs.registry.read(self, read_fields(self.stats, STATS_COUNTERS))
        #: When the owner can re-key (endpoint with ``rekey_threshold``
        #: armed), an exhausted chain leaves the backlog queued for the
        #: replacement association to migrate instead of raising
        #: ChainExhaustedError out of ``poll()`` mid-event-loop. With
        #: re-keying off there is no migration coming, so exhaustion
        #: still surfaces loudly.
        self.defer_exhaustion = False
        #: EWMA of submitted payload sizes — an adaptation signal (the
        #: best mode depends on message size, paper Section 3.3).
        self.mean_message_size = 0.0
        self._queue: deque[bytes] = deque()
        self._exchanges: dict[int, _Exchange] = {}
        self._next_seq = 1
        self.reports: list[DeliveryReport] = []
        self.failures: list[ExchangeFailed] = []
        #: Exchange failures since the last success; dead-peer signal.
        self.consecutive_failures = 0
        #: Longest run of consecutive timeouts any exchange spent pinned
        #: at ``rto_max_s`` before the escape hatch intervened; never
        #: above ``RTO_PROBE_AFTER``.
        self.max_rto_streak_peak = 0
        #: Endpoint-installed hop-death hook, consulted with
        #: ``(cause, now)`` immediately before an exchange would fail
        #: terminally with ``rto-escape``. Returning True means a backup
        #: path was promoted: the exchange stays alive and every
        #: in-flight exchange is re-presented (:meth:`represent`)
        #: through the new hops instead of burning chain elements on a
        #: fresh attempt.
        self.escape_hook = None

    # -- public API -----------------------------------------------------------

    @property
    def idle(self) -> bool:
        """True when nothing is queued or in flight."""
        return not self._exchanges and not self._queue

    def turn_is_idle(self, completions_seen: int) -> bool:
        """True when the owner's poll-and-drain turn can do nothing.

        Nothing is in flight or queued (so :meth:`poll` has no timer to
        fire and no exchange to start), no report or failure waits to be
        drained, no completion beyond ``completions_seen`` waits to be
        credited, and there is no failure streak for dead-peer detection
        to weigh.
        """
        return not (
            self._exchanges
            or self._queue
            or self.reports
            or self.failures
            or self.consecutive_failures
            or self.stats.exchanges_completed != completions_seen
        )

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def next_deadline(self) -> float | None:
        """Earliest instant this session needs :meth:`poll` again.

        ``None`` means the session is quiescent: no exchange in flight
        and nothing startable queued — polling before new input arrives
        would be a no-op. ``0.0`` flags work that is startable *now*
        (queued messages with a free exchange slot and chain runway).
        ``AlphaEndpoint.next_deadline`` is built from this.
        """
        if (
            self._queue
            and len(self._exchanges) < self.config.max_outstanding
            and (self.chain.remaining_exchanges > 0 or not self.defer_exhaustion)
        ):
            return 0.0
        if not self._exchanges:
            return None
        return min(exchange.deadline for exchange in self._exchanges.values())

    def reconfigure(self, config: ChannelConfig) -> None:
        """Switch mode/batching for *future* exchanges.

        This is ALPHA's adaptivity: a host can move between base,
        cumulative, and Merkle modes mid-association — e.g. grow batches
        when a queue builds up — without touching its chains. The
        exchange currently in flight is unaffected.
        """
        self.config = config

    def submit(self, message: bytes) -> None:
        """Queue one message for integrity-protected transmission."""
        if not message:
            raise ValueError(
                "empty messages are reserved for Merkle padding leaves"
            )
        if len(message) > 0xFFFF:
            raise ValueError("message exceeds the 64 KiB wire limit")
        if self.mean_message_size:
            self.mean_message_size += 0.25 * (len(message) - self.mean_message_size)
        else:
            self.mean_message_size = float(len(message))
        self._queue.append(message)

    def poll(self, now: float) -> list[bytes]:
        """Advance the engine; returns packets to put on the wire."""
        out: list[bytes] = []
        # A terminal rto-escape proved the path dead: start nothing on it
        # in this poll, so the endpoint's dead-peer declaration fails the
        # queue instead of a fresh exchange retransmitting into the hole.
        escaped = False
        for exchange in list(self._exchanges.values()):
            if now < exchange.deadline:
                continue
            if exchange.retries >= self.config.max_retries:
                self._fail_exchange(exchange, now)
                continue
            if exchange.probing and exchange.probe_sends >= PROBE_BUDGET:
                # The link never answered even the minimal S1/A1 probe:
                # the hop is dead. A successful failover re-presents the
                # in-flight S1s over a backup path; otherwise stop
                # spinning at max RTO and fail terminally so dead-peer
                # detection takes over.
                if self._try_failover(now, "rto-escape"):
                    out.extend(self.represent(now))
                    continue
                self._fail_exchange(exchange, now, reason="rto-escape")
                escaped = True
                continue
            if not exchange.probing and self._note_max_rto_timeout(exchange):
                if not self._engage_probe(exchange, now):
                    if self._try_failover(now, "rto-escape"):
                        out.extend(self.represent(now))
                    else:
                        self._fail_exchange(exchange, now, reason="rto-escape")
                        escaped = True
                    continue
            exchange.retries += 1
            exchange.rtt_clean = False  # Karn: the next reply is ambiguous
            self.stats.retransmits += 1
            self.stats.retransmits_timeout += 1
            resent = "s1"
            sent = 0
            if exchange.probing:
                # Escape hatch: probe with the bare S1 — the verifier
                # repeats its A1 verbatim for a retransmitted S1, so one
                # packet each way re-measures the link without pushing
                # the full batch into it.
                exchange.probe_sends += 1
                exchange.probe_sent_at = now
                exchange.deadline = now + self._current_timeout()
                out.append(exchange.s1_bytes)
                sent = 1
                resent = "probe"
                self.stats.escape_probes += 1
            else:
                exchange.deadline = now + self._backed_off_timeout()
                if exchange.state is ExchangeState.AWAIT_A1:
                    out.append(exchange.s1_bytes)
                    sent = 1
                elif exchange.state is ExchangeState.AWAIT_A2:
                    resends = self._retransmit_s2(exchange)
                    out.extend(resends)
                    sent = len(resends)
                    resent = "s2"
            self.stats.packets_sent += sent
            if self._obs.enabled:
                self._obs.tracer.emit(
                    now, self._node, EventKind.RETRANSMIT, self.assoc_id,
                    exchange.seq,
                    info=f"{resent} try={exchange.retries} rto={self.rtt.rto:.4f}",
                )
                if exchange.probing:
                    self._obs.tracer.emit(
                        now, self._node, EventKind.RTO_PROBE, self.assoc_id,
                        exchange.seq,
                        info=f"probe={exchange.probe_sends}/{PROBE_BUDGET}",
                    )
                elif self.config.adaptive_rto:
                    self._obs.tracer.emit(
                        now, self._node, EventKind.BACKOFF, self.assoc_id,
                        exchange.seq, info=f"rto={self.rtt.rto:.4f}",
                    )
        while (
            not escaped
            and self._queue
            and len(self._exchanges) < self.config.max_outstanding
        ):
            if self.chain.remaining_exchanges <= 0 and self.defer_exhaustion:
                # Out of chain elements: leave the backlog queued for the
                # re-key migration instead of raising ChainExhaustedError
                # out of the event loop (the replacement handshake may
                # still be in flight).
                break
            out.append(self._start_exchange(now))
        return out

    def handle_a1(self, packet: A1Packet, now: float) -> list[bytes]:
        """Process an A1; returns the S2 packets (possibly several)."""
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.A1_RECV, self.assoc_id, packet.seq
            )
        exchange = self._exchanges.get(packet.seq)
        if exchange is None:
            return []  # stale or duplicate A1
        if exchange.state is not ExchangeState.AWAIT_A1:
            if exchange.probing and exchange.state is ExchangeState.AWAIT_A2:
                return self._probe_response(exchange, packet, now)
            # Paper Section 3.2.2: discard pre-(n)acks in further A1
            # packets once an S2 has been sent.
            return []
        if packet.ack_index % 2 == 0:
            self._reject_a1(now, packet.seq, "even-position")
            return []  # A1 tokens are odd-position ack-chain elements
        ack_element = new_element((packet.ack_index, packet.ack_element))
        if not self.ack_verifier.admit(ack_element):
            self._reject_a1(now, packet.seq, "bad-chain-element")
            return []  # forged or replayed A1
        if packet.echo_sig_element != exchange.s1_element.value:
            self._reject_a1(now, packet.seq, "wrong-echo")
            return []  # acknowledges someone else's S1
        exchange.a1_ack_element = ack_element
        self._exchange_alive(exchange)
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.A1_VERIFY_OK, self.assoc_id,
                packet.seq, info=f"ack_index={packet.ack_index}",
            )
        if exchange.rtt_clean and self.config.adaptive_rto:
            # Unambiguous S1 -> A1 round trip: feed the estimator.
            sample = max(0.0, now - exchange.sent_at)
            self.rtt.observe(sample)
            self.stats.rtt_samples += 1
            if self.link is not None:
                self.link.on_rtt_sample(sample)
            if self._obs.enabled:
                self._obs.tracer.emit(
                    now, self._node, EventKind.RTO_UPDATE, self.assoc_id,
                    packet.seq,
                    info=f"rtt={sample:.4f} rto={self.rtt.rto:.4f}",
                )
                self._obs.registry.histogram("signer.rtt_s").observe(sample)
        elif self.config.adaptive_rto:
            # Ambiguously-timed reply (Karn forbids sampling it), but it
            # still proves the peer alive: collapse backoff (§5.7).
            self.rtt.clear_backoff()
        if exchange.reliable:
            exchange.pre_acks = list(packet.pre_acks)
            exchange.pre_nacks = list(packet.pre_nacks)
            exchange.amt_root = packet.amt_root
            if packet.amt_root is not None:
                exchange.merkle_cache = MerkleVerifyCache()
        s2_packets = self._build_s2_packets(exchange)
        self.stats.packets_sent += len(s2_packets)
        if self._obs.enabled:
            for index in range(len(s2_packets)):
                self._obs.tracer.emit(
                    now, self._node, EventKind.S2_SEND, self.assoc_id,
                    exchange.seq, msg_index=index,
                )
            self._obs.registry.counter("signer.s2_sent").inc(len(s2_packets))
        if exchange.reliable:
            exchange.state = ExchangeState.AWAIT_A2
            exchange.retries = 0
            exchange.sent_at = now
            exchange.rtt_clean = True
            exchange.deadline = now + self._current_timeout()
        else:
            self._complete_exchange(exchange, delivered=None, now=now)
        return s2_packets

    def handle_a2(self, packet: A2Packet, now: float) -> list[bytes]:
        """Process an A2; may return S2 retransmissions for nacks."""
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.A2_RECV, self.assoc_id, packet.seq
            )
        exchange = self._exchanges.get(packet.seq)
        if exchange is None or exchange.state is not ExchangeState.AWAIT_A2:
            return []
        reason = check_a2_key(self.ack_verifier, exchange, packet)
        if reason is not None:
            self._reject_a2(now, packet.seq, reason)
            return []
        if self.config.adaptive_rto:
            self.rtt.clear_backoff()  # authentic A2: the peer is alive
        self._exchange_alive(exchange)
        for verdict in packet.verdicts:
            if not verify_verdict(self._hash, exchange, verdict):
                continue
            if verdict.is_ack:
                exchange.acked.add(verdict.msg_index)
                exchange.nacked.discard(verdict.msg_index)
            elif verdict.msg_index not in exchange.acked:
                exchange.nacked.add(verdict.msg_index)
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.A2_VERIFY_OK, self.assoc_id,
                packet.seq,
                info=f"acked={len(exchange.acked)}/{len(exchange.messages)}",
            )
        if len(exchange.acked) == len(exchange.messages):
            self._complete_exchange(exchange, delivered=True, now=now)
            return []
        if exchange.nacked:
            if not self._admit_nack_retransmit(exchange, now):
                # Damper engaged: swallow the nack and leave the
                # deadline untouched so the timeout path stays live.
                exchange.nacked.clear()
                return []
            out = self._retransmit_s2(exchange, only=exchange.nacked)
            self.stats.packets_sent += len(out)
            if self._obs.enabled:
                self._obs.tracer.emit(
                    now, self._node, EventKind.RETRANSMIT, self.assoc_id,
                    packet.seq, info=f"s2-nacked={sorted(exchange.nacked)}",
                )
            exchange.nacked.clear()
            exchange.rtt_clean = False
            exchange.deadline = now + self._current_timeout()
            self.stats.retransmits += 1
            self.stats.retransmits_nack += 1
            return out
        return []

    # -- internals -------------------------------------------------------------

    def _start_exchange(self, now: float) -> bytes:
        batch = self.config.effective_batch
        messages = [self._queue.popleft() for _ in range(min(batch, len(self._queue)))]
        s1_element, key_element = self.chain.next_exchange()
        mode = self.config.mode
        reliable = self.config.reliability is ReliabilityMode.RELIABLE
        trees: list[MerkleTree] = []
        per_tree = 0
        if mode in (Mode.MERKLE, Mode.MERKLE_CUMULATIVE):
            # Plain ALPHA-M is the one-tree case of the C+M slicing.
            wanted = self.config.trees_per_s1 if mode is Mode.MERKLE_CUMULATIVE else 1
            per_tree = leaves_per_tree(len(messages), min(wanted, len(messages)))
            trees = [
                MerkleTree(self._hash, messages[start : start + per_tree])
                for start in range(0, len(messages), per_tree)
            ]
            pre_signatures = [tree.root(key_element.value) for tree in trees]
        else:
            pre_signatures = [
                self._hash.mac(key_element.value, message, label="pre-signature")
                for message in messages
            ]
        seq = self._next_seq
        self._next_seq += 1
        s1 = S1Packet(
            assoc_id=self.assoc_id,
            seq=seq,
            mode=mode,
            chain_index=s1_element.index,
            chain_element=s1_element.value,
            pre_signatures=pre_signatures,
            message_count=len(messages),
            reliable=reliable,
        )
        s1_bytes = s1.encode()
        self.stats.packets_sent += 1
        self._exchanges[seq] = _Exchange(
            seq=seq,
            mode=mode,
            reliable=reliable,
            messages=messages,
            s1_element=s1_element,
            key_element=key_element,
            s1_bytes=s1_bytes,
            trees=trees,
            per_tree=per_tree,
            deadline=now + self._current_timeout(),
            sent_at=now,
            started_at=now,
            nack_tokens=float(NACK_BUCKET),
            nack_refill_at=now,
        )
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.S1_SEND, self.assoc_id, seq,
                info=f"mode={mode.name.lower()} n={len(messages)}"
                + (" reliable" if reliable else ""),
            )
            self._obs.registry.counter("signer.s1_sent").inc()
        return s1_bytes

    #: Rejection reasons proving the ack arrived *damaged* — the signer-
    #: side mirror of the verifier's corruption evidence. A damaged
    #: chain element or echo is a packet the link chewed; an even/odd
    #: position error is a role violation, not link damage.
    _CORRUPTION_REASONS = frozenset({"bad-chain-element", "wrong-echo"})

    def _reject_a1(self, now: float, seq: int, reason: str) -> None:
        if self.link is not None and reason in self._CORRUPTION_REASONS:
            self.link.on_corrupt_arrival()
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.A1_VERIFY_FAIL, self.assoc_id,
                seq, info=reason,
            )
            self._obs.registry.counter("signer.a1_rejected").inc()

    def _reject_a2(self, now: float, seq: int, reason: str) -> None:
        if self.link is not None and reason in self._CORRUPTION_REASONS:
            self.link.on_corrupt_arrival()
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.A2_VERIFY_FAIL, self.assoc_id,
                seq, info=reason,
            )
            self._obs.registry.counter("signer.a2_rejected").inc()

    def _current_timeout(self) -> float:
        """Timeout for a fresh transmission (no extra backoff)."""
        if self.config.adaptive_rto:
            return self.rtt.rto
        return self.config.retransmit_timeout_s

    def _backed_off_timeout(self) -> float:
        """Timeout after a retransmission: backoff plus jitter."""
        if not self.config.adaptive_rto:
            return self.config.retransmit_timeout_s
        timeout = self.rtt.backoff()
        self.stats.backoff_events += 1
        if self.config.backoff_jitter:
            timeout *= 1.0 + self.rng.uniform(0.0, self.config.backoff_jitter)
        return timeout

    # -- storm damper / escape hatch (PROTOCOL.md §12) -------------------------

    def _admit_nack_retransmit(self, exchange: _Exchange, now: float) -> bool:
        """Nack-storm damper: token bucket + exponential suppression.

        Under a corruption storm every retransmitted S2 arrives damaged
        and is nacked again; honoring each nack instantly turns the
        exchange into a tight resend loop whose refreshed deadline keeps
        the timeout path — and with it the retry cap — from ever firing.
        The bucket admits short bursts at full speed; once drained,
        suppression windows grow exponentially with the streak. A
        suppressed nack leaves the deadline alone, so timeouts (and
        terminal outcomes) stay reachable.
        """
        rto = self._current_timeout()
        elapsed = max(0.0, now - exchange.nack_refill_at)
        exchange.nack_tokens = min(
            float(NACK_BUCKET),
            exchange.nack_tokens + elapsed / (NACK_REFILL_RTOS * rto),
        )
        exchange.nack_refill_at = now
        if exchange.nack_tokens >= 1.0:
            exchange.nack_tokens -= 1.0
            exchange.nack_suppress_streak = 0
            return True
        if now >= exchange.nack_open_at:
            exchange.nack_suppress_streak += 1
            window = rto * (2.0 ** min(exchange.nack_suppress_streak, 6))
            exchange.nack_open_at = now + window
        self.stats.nack_suppressed += 1
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.NACK_SUPPRESSED, self.assoc_id,
                exchange.seq,
                info=f"streak={exchange.nack_suppress_streak}"
                f" tokens={exchange.nack_tokens:.2f}",
            )
        return False

    def _note_max_rto_timeout(self, exchange: _Exchange) -> bool:
        """Track consecutive timeouts pinned at ``rto_max_s``; True at K.

        Karn's algorithm discards retransmitted samples, so once every
        reply is lost or damaged the RTO rides its ceiling and blind
        full-batch resends can spin there for the whole retry budget.
        K consecutive ceiling timeouts cue the escape-hatch probe.
        """
        if not self.config.adaptive_rto:
            return False
        if self.rtt.rto < self.config.rto_max_s - 1e-9:
            exchange.at_max_streak = 0
            return False
        exchange.at_max_streak += 1
        if exchange.at_max_streak > self.max_rto_streak_peak:
            self.max_rto_streak_peak = exchange.at_max_streak
        return exchange.at_max_streak >= RTO_PROBE_AFTER

    def _engage_probe(self, exchange: _Exchange, now: float) -> bool:
        """Enter probe mode; False when the exchange is structurally
        stuck instead.

        A second probe episode with no progress since the first means
        probing again cannot help — e.g. an on-path relay committed to a
        damaged S1 and now drops every genuine resend as a mismatch.
        The caller then fails the exchange terminally (or fails the
        association over to a backup path when one is registered).
        """
        marker = (exchange.state.value, len(exchange.acked))
        if exchange.probe_episodes and exchange.probe_marker == marker:
            return False
        exchange.probe_episodes += 1
        exchange.probe_marker = marker
        exchange.probing = True
        exchange.probe_sends = 0
        return True

    def _try_failover(self, now: float, cause: str) -> bool:
        """Consult the endpoint's hop-death hook; True on a path switch."""
        hook = self.escape_hook
        return hook is not None and bool(hook(cause, now))

    def represent(self, now: float) -> list[bytes]:
        """Re-present every in-flight exchange after a path switch.

        Chain elements are single-use, so a new path must carry the
        *same* S1s: the verifier repeats its cached A1 for a
        retransmitted S1, fresh relays forward it per their unknown-
        association policy, and warm-provisioned relays verify it
        through their resync window. Exchanges already past A1 re-enter
        probe mode so the repeated A1 reseeds the (pinned) RTT estimator
        with a measurement of the new path before S2 repair resumes.
        Retry and probe budgets reset — the old path's spend says
        nothing about the new one.
        """
        out: list[bytes] = []
        for exchange in self._exchanges.values():
            exchange.retries = 0
            exchange.at_max_streak = 0
            exchange.probe_episodes = 0
            exchange.probe_marker = ()
            exchange.nack_tokens = float(NACK_BUCKET)
            exchange.nack_refill_at = now
            exchange.nack_suppress_streak = 0
            exchange.nack_open_at = now
            exchange.rtt_clean = False  # Karn: replies stay ambiguous
            if exchange.state is ExchangeState.AWAIT_A2:
                exchange.probing = True
                exchange.probe_sends = 1
                exchange.probe_sent_at = now
                self.stats.escape_probes += 1
            else:
                exchange.probing = False
                exchange.probe_sends = 0
            exchange.deadline = now + self._current_timeout()
            out.append(exchange.s1_bytes)
            self.stats.s1_representations += 1
            if self._obs.enabled:
                self._obs.tracer.emit(
                    now, self._node, EventKind.RETRANSMIT, self.assoc_id,
                    exchange.seq, info="failover-represent",
                )
        self.stats.packets_sent += len(out)
        return out

    def _probe_response(
        self, exchange: _Exchange, packet: A1Packet, now: float
    ) -> list[bytes]:
        """A repeated A1 answering an escape-hatch probe.

        The verifier repeats the identical A1 for a retransmitted S1, so
        matching the committed ack element and S1 echo authenticates the
        reply without touching chain state (the element was consumed
        when the original A1 was verified). The round trip is a fresh
        liveness sample: collapse/reseed the pinned backoff and resume
        repair at the measured timeout.
        """
        committed = exchange.a1_ack_element
        if (
            committed is None
            or packet.ack_element != committed.value
            or packet.echo_sig_element != exchange.s1_element.value
        ):
            return []
        sample = max(0.0, now - exchange.probe_sent_at)
        if self.config.adaptive_rto:
            self.rtt.clear_backoff(sample)
            self.stats.rtt_samples += 1
        if self.link is not None:
            self.link.on_rtt_sample(sample)
        self._exchange_alive(exchange)
        self.stats.probe_recoveries += 1
        out = self._retransmit_s2(exchange)
        exchange.rtt_clean = False
        exchange.deadline = now + self._current_timeout()
        self.stats.packets_sent += len(out)
        if out:
            self.stats.retransmits += 1
            self.stats.retransmits_timeout += 1
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.PROBE_RECOVERY, self.assoc_id,
                exchange.seq,
                info=f"rtt={sample:.4f} rto={self.rtt.rto:.4f}"
                f" resent={len(out)}",
            )
        return out

    def _exchange_alive(self, exchange: _Exchange) -> None:
        """An authenticated reply arrived: reset the escape-hatch state."""
        exchange.at_max_streak = 0
        exchange.probing = False
        exchange.probe_sends = 0

    def _build_s2_packets(self, exchange: _Exchange) -> list[bytes]:
        packets = []
        for index, message in enumerate(exchange.messages):
            if exchange.trees:
                tree, leaf = divmod(index, exchange.per_tree)
                path = exchange.trees[tree].path(leaf)
            else:
                path = []
            packet = S2Packet(
                assoc_id=self.assoc_id,
                seq=exchange.seq,
                disclosed_index=exchange.key_element.index,
                disclosed_element=exchange.key_element.value,
                msg_index=index,
                message=message,
                auth_path=path,
            )
            encoded = packet.encode()
            exchange.s2_bytes[index] = encoded
            packets.append(encoded)
        return packets

    def _retransmit_s2(self, exchange: _Exchange, only: set[int] | None = None) -> list[bytes]:
        """Selective repeat: the unacked S2s, of ``only`` if given."""
        return [
            exchange.s2_bytes[index]
            for index in range(len(exchange.messages))
            if index not in exchange.acked and (only is None or index in only)
        ]

    def _complete_exchange(
        self, exchange: _Exchange, delivered: bool | None, now: float = 0.0
    ) -> None:
        exchange.state = ExchangeState.DONE
        self.stats.exchanges_completed += 1
        self.consecutive_failures = 0
        if self.link is not None:
            self.link.on_exchange_done(
                now, max(0.0, now - exchange.started_at)
            )
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.EXCHANGE_DONE, self.assoc_id,
                exchange.seq, info=f"n={len(exchange.messages)}",
            )
        if delivered is not None:
            for index, message in enumerate(exchange.messages):
                self.reports.append(
                    DeliveryReport(exchange.seq, index, message, delivered)
                )
        self._exchanges.pop(exchange.seq, None)

    def _fail_exchange(
        self, exchange: _Exchange, now: float = 0.0, reason: str = "retry-cap"
    ) -> None:
        exchange.state = ExchangeState.FAILED
        if self.link is not None:
            self.link.on_exchange_failed(now)
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.EXCHANGE_FAILED, self.assoc_id,
                exchange.seq, info=f"{reason} retries={exchange.retries}",
            )
        # The next exchange starts from the RTO estimate, not this one's
        # terminal backoff; persistent unreachability is dead-peer
        # detection's job, not an ever-growing timer's.
        self.rtt.clear_backoff()
        self.consecutive_failures += 1
        self.stats.exchanges_failed += 1
        for index, message in enumerate(exchange.messages):
            delivered = index in exchange.acked
            self.reports.append(
                DeliveryReport(exchange.seq, index, message, delivered)
            )
        self.failures.append(
            ExchangeFailed(
                peer=self.peer,
                assoc_id=self.assoc_id,
                seq=exchange.seq,
                retries=exchange.retries,
                reason=reason,
                messages=[
                    message
                    for index, message in enumerate(exchange.messages)
                    if index not in exchange.acked
                ],
            )
        )
        self._exchanges.pop(exchange.seq, None)

    def take_unsent(self) -> list[bytes]:
        """Hand over every message the peer cannot have received.

        The queue always goes. While no A1 was ever admitted, no S2 has
        left this session either: its in-flight exchanges end here,
        without an :class:`ExchangeFailed`, and their messages go first,
        in sequence order.
        """
        messages = []
        if self.ack_verifier.trusted == self._ack_anchor:
            for seq in sorted(self._exchanges):
                messages.extend(self._exchanges[seq].messages)
            self._exchanges.clear()
        messages.extend(self._queue)
        self._queue.clear()
        return messages

    def drain_reports(self) -> list[DeliveryReport]:
        """Return and clear accumulated delivery reports."""
        reports, self.reports = self.reports, []
        return reports

    def drain_failures(self) -> list[ExchangeFailed]:
        """Return and clear terminal exchange failures."""
        failures, self.failures = self.failures, []
        return failures

    def fail_queued(self, reason: str, now: float = 0.0) -> list[ExchangeFailed]:
        """Fail every not-yet-started message (dead peer)."""
        if not self._queue:
            return []
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.EXCHANGE_FAILED, self.assoc_id,
                0, info=f"{reason} queued={len(self._queue)}",
            )
        failure = ExchangeFailed(
            peer=self.peer,
            assoc_id=self.assoc_id,
            seq=0,
            retries=0,
            reason=reason,
            messages=list(self._queue),
        )
        self._queue.clear()
        self.failures.append(failure)
        return [failure]


def check_a2_key(ack_verifier: ChainVerifier, exchange, packet: A2Packet) -> str | None:
    """The A2 key-disclosure check; ``None`` when the key holds.

    An A2 discloses the even-position ack-chain element below its A1
    token. The first disclosure that verifies on the chain is pinned in
    ``exchange.ack_key_value``; every later A2 of the exchange must
    repeat it. The signer and each relay run this same check.
    """
    if packet.disclosed_index % 2:
        return "odd-position"
    if exchange.ack_key_value is None:
        disclosed = new_element((packet.disclosed_index, packet.disclosed_element))
        if not ack_verifier.verify_disclosure(disclosed):
            return "bad-key"
        exchange.ack_key_value = disclosed.value
    elif packet.disclosed_element != exchange.ack_key_value:
        return "key-mismatch"
    return None


def verify_verdict(hash_fn: HashFunction, exchange, verdict: AckVerdict) -> bool:
    """Check one (n)ack against what the exchange's A1 committed to.

    ``exchange`` carries ``message_count`` and the A1 commitment
    (``amt_root``, or the flat ``pre_acks``/``pre_nacks``) plus the
    ``ack_key_value`` that :func:`check_a2_key` pinned, and the
    ``merkle_cache`` that AMT openings are checked through. A verdict
    for an index outside the exchange never verifies.
    """
    if not 0 <= verdict.msg_index < exchange.message_count:
        return False
    key = exchange.ack_key_value
    if exchange.amt_root is not None:
        return verify_ack_opening(
            hash_fn, verdict, exchange.message_count, key, exchange.amt_root,
            exchange.merkle_cache,
        )
    if verdict.msg_index >= len(exchange.pre_acks):
        return False
    tag = PRE_ACK_TAG if verdict.is_ack else PRE_NACK_TAG
    expected = (
        exchange.pre_acks[verdict.msg_index]
        if verdict.is_ack
        else exchange.pre_nacks[verdict.msg_index]
    )
    return hash_fn.digest(key + tag + verdict.secret, label="pre-ack-verify") == expected
