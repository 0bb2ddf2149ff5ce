"""The verifier's protocol engine (sans-IO).

One :class:`VerifierSession` terminates one simplex channel: it owns the
acknowledgment chain, answers S1 packets with A1 packets (buffering the
pre-signatures), verifies disclosed S2 packets, delivers authentic
messages to the application, and — on reliable channels — commits to and
opens pre-(n)acks (paper Sections 3.1, 3.2.2, 3.3.3).

Willingness: the paper lets receivers "explicitly state whether or not
they are willing to receive data from a sender by providing or denying
an A1 packet" (Section 3.5). The ``accept_policy`` callback implements
that decision point.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.core.acktree import AckTree, draw_secrets
from repro.core.hashchain import ChainElement, ChainVerifier, HashChain, new_element
from repro.core.linkhealth import LinkHealth
from repro.core.merkle import (
    MerkleVerifyCache,
    leaves_per_tree,
    tree_depth,
    verify_merkle_path,
)
from repro.core.modes import Mode
from repro.core.packets import A1Packet, A2Packet, AckVerdict, S1Packet, S2Packet
from repro.core.resilience import ResilienceStats
from repro.core.signer import PRE_ACK_TAG, PRE_NACK_TAG
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import HashFunction
from repro.obs import OBS_OFF, EventKind, Observability
from repro.obs.metrics import read_fields

#: Rejection reasons that prove the packet *arrived damaged* (versus
#: never arriving, or arriving for an unknown exchange): the first-hand
#: corruption evidence the link-health classifier feeds on. A replayed
#: or forged element lands here too — an adversary damaging packets is
#: indistinguishable from a link doing it, and both argue for the same
#: channel posture.
_CORRUPTION_REASONS = frozenset(
    {"bad-chain-element", "bad-mac", "bad-key-disclosure"}
)


@dataclass
class DeliveredMessage:
    """An authenticated message handed to the application."""

    seq: int
    msg_index: int
    message: bytes


#: The modes whose S1 commits to Merkle roots rather than one MAC per message.
_MERKLE_MODES = (Mode.MERKLE, Mode.MERKLE_CUMULATIVE)


@dataclass(slots=True)
class S1Commitment:
    """What one S1 commits to, as buffered by every role checking its S2s.

    The verifier and each relay extend this record with their own state;
    :func:`check_s2_key` and :func:`verify_s2` read it. Records are
    slotted: one is built per S1 at every relay on the path.
    """

    seq: int
    mode: Mode
    reliable: bool
    message_count: int
    pre_signatures: list[bytes]
    s1_element: ChainElement
    key_value: bytes | None = None  # pinned by the first valid S2 disclosure
    #: Proven Merkle interior nodes for this batch (PROTOCOL.md §14), or
    #: ``None`` in BASE and ALPHA-C, whose S2 check never reads it; dies
    #: with the exchange, so batch boundaries invalidate it. Never
    #: journaled: a restored relay re-proves from the re-presented S1.
    merkle_cache: MerkleVerifyCache | None = None

    @classmethod
    def from_s1(cls, packet: S1Packet, element: ChainElement):
        """The record of ``packet``, whose verified token is ``element``.

        The record holds the packet's own pre-signature list: no role
        mutates one.
        """
        mode = packet.mode
        return cls(
            packet.seq,
            mode,
            packet.reliable,
            packet.message_count,
            packet.pre_signatures,
            element,
            None,
            MerkleVerifyCache() if mode in _MERKLE_MODES else None,
        )

    @property
    def buffered_bytes(self) -> int:
        """Pre-signature buffer footprint (Table 2's verifier column)."""
        return len(b"".join(self.pre_signatures))


#: Registry counters read from the verifier's ``stats`` block.
STATS_COUNTERS = {"verifier.nacks_suppressed": "nack_suppressed"}


@dataclass(slots=True)
class _VerifierExchange(S1Commitment):
    a1_bytes: bytes = b""
    ack_element: ChainElement | None = None
    ack_key_element: ChainElement | None = None
    delivered: set[int] = field(default_factory=set)
    ack_secrets: list[bytes] = field(default_factory=list)
    nack_secrets: list[bytes] = field(default_factory=list)
    amt: AckTree | None = None
    #: Damaged arrivals per message index, for exponential duplicate-
    #: nack suppression (the verifier's half of the storm damper).
    nack_counts: dict[int, int] = field(default_factory=dict)


class VerifierSession:
    """Verifying side of one simplex ALPHA channel."""

    def __init__(
        self,
        hash_fn: HashFunction,
        ack_chain: HashChain,
        sig_verifier: ChainVerifier,
        assoc_id: int,
        rng: DRBG,
        accept_policy: Callable[[S1Packet], bool] | None = None,
        max_buffered_exchanges: int = 8,
        obs: Observability | None = None,
        node: str = "",
        link: LinkHealth | None = None,
    ) -> None:
        if max_buffered_exchanges < 1:
            raise ValueError("need room for at least one exchange")
        self._obs = obs if obs is not None else OBS_OFF
        self._node = node or "verifier"
        #: Cross-association link ledger fed with first-hand corruption
        #: evidence (damaged chain elements, bad MACs).
        self.link = link
        self._hash = hash_fn
        self.ack_chain = ack_chain
        self.sig_verifier = sig_verifier
        self.assoc_id = assoc_id
        self._rng = rng
        self.accept_policy = accept_policy
        self.max_buffered_exchanges = max_buffered_exchanges
        self._exchanges: dict[int, _VerifierExchange] = {}
        #: Heap of the buffered exchanges' seqs whose every message is
        #: delivered: the first ones ``_remember`` sheds.
        self._complete: list[int] = []
        self.delivered: list[DeliveredMessage] = []
        self.rejected_s1 = 0
        self.rejected_s2 = 0
        self.refused_s1 = 0
        #: ``nack_suppressed``: duplicate nacks the damper withheld (§12).
        self.stats = ResilienceStats()
        if self._obs.enabled:
            self._obs.registry.read(self, read_fields(self.stats, STATS_COUNTERS))

    # -- packet handlers -------------------------------------------------------

    def handle_s1(self, packet: S1Packet, now: float) -> bytes | None:
        """Process an S1. Returns the A1 to send, or None to stay silent."""
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.S1_RECV, self.assoc_id, packet.seq,
                info=f"mode={packet.mode.name.lower()} n={packet.message_count}",
            )
        existing = self._exchanges.get(packet.seq)
        if existing is not None:
            # Retransmitted S1: repeat the identical A1 (fresh secrets or
            # chain elements would break the signer's bookkeeping).
            if self._obs.enabled and existing.a1_bytes:
                self._obs.tracer.emit(
                    now, self._node, EventKind.A1_SEND, self.assoc_id,
                    packet.seq, info="retransmit",
                )
            return existing.a1_bytes or None
        if packet.chain_index % 2 == 0:
            # Role binding (Section 3.2.1): S1 identity tokens live at odd
            # chain positions. An even-position element is a disclosed MAC
            # key being replayed in the S1 role — the reformatting attack.
            self.rejected_s1 += 1
            self._reject_s1(now, packet.seq, "even-position")
            return None
        element = new_element((packet.chain_index, packet.chain_element))
        if not self.sig_verifier.admit(element):
            self.rejected_s1 += 1
            self._reject_s1(now, packet.seq, "bad-chain-element")
            return None
        if self.accept_policy is not None and not self.accept_policy(packet):
            # Unwilling: deny the A1 (paper Section 3.5). The chain
            # element was still consumed, which is correct — it was
            # genuinely disclosed on the wire.
            self.refused_s1 += 1
            if self._obs.enabled:
                self._obs.tracer.emit(
                    now, self._node, EventKind.S1_REFUSED, self.assoc_id,
                    packet.seq,
                )
                self._obs.registry.counter("verifier.s1_refused").inc()
            return None
        exchange = _VerifierExchange.from_s1(packet, element)
        a1_element, ack_key = self.ack_chain.next_exchange()
        exchange.ack_element = a1_element
        exchange.ack_key_element = ack_key
        pre_acks: list[bytes] = []
        pre_nacks: list[bytes] = []
        amt_root = None
        if packet.reliable:
            if packet.mode in _MERKLE_MODES:
                exchange.amt = AckTree(
                    self._hash, packet.message_count, ack_key.value, self._rng
                )
                amt_root = exchange.amt.root
            else:
                exchange.ack_secrets, exchange.nack_secrets = draw_secrets(
                    self._rng, packet.message_count
                )
                digest, key = self._hash.digest, ack_key.value
                pre_acks = [
                    digest(key + PRE_ACK_TAG + secret, label="pre-ack")
                    for secret in exchange.ack_secrets
                ]
                pre_nacks = [
                    digest(key + PRE_NACK_TAG + secret, label="pre-nack")
                    for secret in exchange.nack_secrets
                ]
        exchange.a1_bytes = A1Packet(
            assoc_id=self.assoc_id,
            seq=packet.seq,
            ack_index=a1_element.index,
            ack_element=a1_element.value,
            echo_sig_index=element.index,
            echo_sig_element=element.value,
            pre_acks=pre_acks,
            pre_nacks=pre_nacks,
            amt_root=amt_root,
        ).encode()
        self._remember(exchange)
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.S1_VERIFY_OK, self.assoc_id,
                packet.seq, info=f"chain_index={element.index}",
            )
            self._obs.tracer.emit(
                now, self._node, EventKind.A1_SEND, self.assoc_id, packet.seq,
                info=f"ack_index={a1_element.index}",
            )
            self._obs.registry.counter("verifier.s1_accepted").inc()
            self._obs.registry.counter("verifier.a1_sent").inc()
        return exchange.a1_bytes

    def handle_s2(self, packet: S2Packet, now: float) -> bytes | None:
        """Process an S2. Returns an A2 (reliable channels) or None."""
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.S2_RECV, self.assoc_id, packet.seq,
                msg_index=packet.msg_index,
            )
        exchange = self._exchanges.get(packet.seq)
        if exchange is None:
            self.rejected_s2 += 1
            self._reject_s2(now, packet, "unknown-exchange")
            return None
        if check_s2_key(self.sig_verifier, exchange, packet) is not None:
            self.rejected_s2 += 1
            self._reject_s2(now, packet, "bad-key-disclosure")
            return None
        valid = verify_s2(self._hash, exchange, packet)
        if valid and self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.S2_VERIFY_OK, self.assoc_id,
                packet.seq, msg_index=packet.msg_index,
                info=f"disclosed={packet.disclosed_index}"
                f" s1={exchange.s1_element.index}",
            )
            self._obs.registry.counter("verifier.s2_accepted").inc()
        if valid and packet.msg_index not in exchange.delivered:
            exchange.delivered.add(packet.msg_index)
            if len(exchange.delivered) == exchange.message_count:
                heapq.heappush(self._complete, exchange.seq)
            self.delivered.append(
                DeliveredMessage(packet.seq, packet.msg_index, packet.message)
            )
            if self._obs.enabled:
                self._obs.tracer.emit(
                    now, self._node, EventKind.DELIVER, self.assoc_id,
                    packet.seq, msg_index=packet.msg_index,
                )
                self._obs.registry.counter("verifier.delivered").inc()
        if not valid:
            self.rejected_s2 += 1
            self._reject_s2(now, packet, "bad-mac")
        if not exchange.reliable:
            return None
        if not valid and exchange.delivered and packet.msg_index in exchange.delivered:
            # Already acked this index with a genuine message; a later
            # corrupted duplicate must not trigger a contradictory nack.
            return None
        if not valid and not self._admit_nack(exchange, packet.msg_index, now):
            return None
        a2 = self._build_a2(exchange, packet.msg_index, valid)
        if a2 is not None and self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.A2_SEND, self.assoc_id, packet.seq,
                msg_index=packet.msg_index,
                info="ack" if valid else "nack",
            )
            self._obs.registry.counter("verifier.a2_sent").inc()
        return a2

    # -- internals -------------------------------------------------------------

    def _reject_s1(self, now: float, seq: int, reason: str) -> None:
        if self.link is not None and reason in _CORRUPTION_REASONS:
            self.link.on_corrupt_arrival()
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.S1_VERIFY_FAIL, self.assoc_id,
                seq, info=reason,
            )
            self._obs.registry.counter("verifier.s1_rejected").inc()

    def _reject_s2(self, now: float, packet: S2Packet, reason: str) -> None:
        if self.link is not None and reason in _CORRUPTION_REASONS:
            self.link.on_corrupt_arrival()
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.S2_VERIFY_FAIL, self.assoc_id,
                packet.seq, msg_index=packet.msg_index, info=reason,
            )
            self._obs.registry.counter("verifier.s2_rejected").inc()

    def _admit_nack(
        self, exchange: _VerifierExchange, msg_index: int, now: float
    ) -> bool:
        """Exponential duplicate-nack suppression (storm damper).

        Under a corruption storm the same damaged index keeps arriving;
        answering every arrival with a fresh nack fuels the signer's
        instant-retransmit loop from this side too. The n-th damaged
        arrival of one index is only nacked when n is a power of two
        (1, 2, 4, 8, ...), so repair stays possible while the nack rate
        decays exponentially.
        """
        count = exchange.nack_counts.get(msg_index, 0) + 1
        exchange.nack_counts[msg_index] = count
        if count & (count - 1) == 0:
            return True
        self.stats.nack_suppressed += 1
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.NACK_SUPPRESSED, self.assoc_id,
                exchange.seq, msg_index=msg_index, info=f"arrival={count}",
            )
        return False

    def _build_a2(
        self, exchange: _VerifierExchange, msg_index: int, is_ack: bool
    ) -> bytes | None:
        if not 0 <= msg_index < exchange.message_count:
            # A corrupted S2 claiming an index outside the exchange gets
            # no (n)ack at all — there is no committed leaf for it.
            return None
        ack_key = exchange.ack_key_element
        if ack_key is None:
            return None
        if exchange.amt is not None:
            verdict = exchange.amt.open(msg_index, is_ack)
        else:
            if msg_index >= len(exchange.ack_secrets):
                return None
            secret = (
                exchange.ack_secrets[msg_index]
                if is_ack
                else exchange.nack_secrets[msg_index]
            )
            verdict = AckVerdict(msg_index=msg_index, is_ack=is_ack, secret=secret)
        a2 = A2Packet(
            assoc_id=self.assoc_id,
            seq=exchange.seq,
            disclosed_index=ack_key.index,
            disclosed_element=ack_key.value,
            verdicts=[verdict],
        )
        return a2.encode()

    def _remember(self, exchange: _VerifierExchange) -> None:
        self._exchanges[exchange.seq] = exchange
        while len(self._exchanges) > self.max_buffered_exchanges:
            # Shed fully delivered exchanges before live ones — under
            # pipelining (and mid-association mode switches, which can
            # briefly widen the in-flight window) evicting a buffered
            # exchange that still awaits S2s would silently drop its
            # messages. Within each class, the lowest sequence goes
            # first: the heap's top, else a scan of the live ones.
            if self._complete:
                del self._exchanges[heapq.heappop(self._complete)]
            else:
                del self._exchanges[min(self._exchanges)]

    @property
    def awaiting_messages(self) -> bool:
        """True while a buffered exchange has undelivered messages."""
        return any(
            len(ex.delivered) < ex.message_count for ex in self._exchanges.values()
        )

    def drain_delivered(self) -> list[DeliveredMessage]:
        """Return and clear messages authenticated since the last drain."""
        messages, self.delivered = self.delivered, []
        return messages

    @property
    def buffered_bytes(self) -> int:
        """Total pre-signature buffer footprint across live exchanges."""
        return sum(ex.buffered_bytes for ex in self._exchanges.values())


def check_s2_key(
    sig_verifier: ChainVerifier, exchange: S1Commitment, packet: S2Packet
) -> str | None:
    """The S2 key-disclosure check; ``None`` when the key holds.

    The first S2 of an exchange must disclose the even-position element
    just below the S1 token, and it must verify on the signature chain;
    it is then pinned in ``exchange.key_value``, and every later S2 of
    the exchange must repeat it. The verifier and each relay run this
    same check.
    """
    if exchange.key_value is not None:
        if packet.disclosed_element != exchange.key_value:
            return "key-mismatch"
        return None
    if packet.disclosed_index != exchange.s1_element.index - 1:
        return "wrong-key-index"
    disclosed = new_element((packet.disclosed_index, packet.disclosed_element))
    if not sig_verifier.verify_disclosure(disclosed):
        return "bad-key"
    exchange.key_value = disclosed.value
    return None


def verify_s2(hash_fn: HashFunction, exchange: S1Commitment, packet: S2Packet) -> bool:
    """Check one S2's message against its S1 commitment.

    Needs the key :func:`check_s2_key` pinned. Cumulative and base modes
    recompute the message's MAC; Merkle modes verify the message's path
    to the root that covers its index.
    """
    if not 0 <= packet.msg_index < exchange.message_count:
        return False
    key = exchange.key_value
    if exchange.mode in _MERKLE_MODES:
        if not packet.message:
            return False  # padding leaves are not real messages
        roots = exchange.pre_signatures
        per_tree = leaves_per_tree(exchange.message_count, len(roots))
        tree, leaf = divmod(packet.msg_index, per_tree)
        # The path must be as deep as the tree covering the index (the
        # last C+M tree may be short): leaves and inner nodes hash
        # alike, so a path one sibling short would let an inner node's
        # preimage pose as a message.
        in_tree = min(per_tree, exchange.message_count - tree * per_tree)
        if len(packet.auth_path) != tree_depth(in_tree):
            return False
        return verify_merkle_path(
            hash_fn,
            packet.message,
            leaf,
            packet.auth_path,
            key,
            roots[tree],
            cache=exchange.merkle_cache,
        )
    recomputed = hash_fn.mac(key, packet.message, label="s2-verify")
    return recomputed == exchange.pre_signatures[packet.msg_index]
