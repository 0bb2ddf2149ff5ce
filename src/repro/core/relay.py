"""The relay's protocol engine (sans-IO).

Relays are what make ALPHA *hop-by-hop*: every forwarding node that has
observed the handshake can verify each packet of an association before
forwarding it, drop forgeries early, and securely extract signed payload
(paper Sections 3.1, 3.1.1, 3.5). A relay keeps per-association state
for both simplex channels and needs only the buffered pre-signatures —
``n · h`` bytes per exchange (Table 2's relay column).

Flood mitigation: the only packets a relay forwards unconditionally are
S1 packets, and those are subject to an adaptive size allowance — small
at first, grown multiplicatively whenever the destination answers with a
valid A1 — implementing the paper's advice that "relays should initially
limit and later increase the maximum size of S1 packets per sender"
(Section 3.5).
"""

from __future__ import annotations

import functools
from bisect import insort
from collections.abc import Sequence
from dataclasses import dataclass, field

# perf/tracing.py patches verify_ack_opening and verify_merkle_path here too.
from repro.core.acktree import verify_ack_opening  # noqa: F401
from repro.core.hashchain import (
    ACKNOWLEDGMENT_TAGS,
    ChainElement,
    ChainVerifier,
    new_element,
)
from repro.core.merkle import verify_merkle_path  # noqa: F401
from repro.core.packets import (
    A1Packet,
    A2Packet,
    AnyPacket,
    HandshakePacket,
    PacketType,
    S1Packet,
    S2Packet,
    decode_packet,
    peek_type,
)
from repro.core.exceptions import PacketError
from repro.core.signer import check_a2_key, verify_verdict
from repro.core.verifier import S1Commitment, check_s2_key, verify_s2
from repro.crypto.hashes import HashFunction
from repro.obs import OBS_OFF, EventKind, Observability

#: Ceiling on the per-association S1 size allowance (bytes).
MAX_S1_ALLOWANCE = 65535
#: Ceiling on HS1s awaiting their HS2. Past it the oldest pending HS1 is
#: forgotten, so a flood of HS1s with fresh association ids costs the
#: relay bounded memory (that association then stays unprovisioned).
MAX_PENDING_HS1 = 1024


@dataclass(frozen=True)
class RelayConfig:
    """Behaviour switches for a relay."""

    #: Drop S2/A2 packets the relay cannot verify (no buffered state).
    #: When False, unverifiable transit traffic is forwarded unverified,
    #: which models partially-deployed ALPHA (Section 3.5).
    strict: bool = True
    #: Refuse to forward S2 packets when no A1 has been observed for the
    #: exchange — the paper's suppression of unsolicited traffic.
    require_a1_for_s2: bool = True
    #: Forward packets of associations with unknown anchors (non-ALPHA
    #: relays would). Strict-security deployments set this to False.
    forward_unknown: bool = True
    #: Initial per-association S1 size allowance in bytes; it doubles
    #: with every authentic A1, up to ``MAX_S1_ALLOWANCE``.
    initial_s1_allowance: int = 1536
    #: Buffered exchanges per simplex channel.
    max_buffered_exchanges: int = 8
    #: Evict a buffered exchange untouched for this long (seconds); a
    #: flooding adversary cannot park state forever. ``None`` disables.
    exchange_ttl_s: float | None = 30.0
    #: Hard byte ceiling for one channel's S1/A1 buffers; the oldest
    #: exchanges are evicted to stay under it. ``None`` disables.
    max_buffered_bytes: int | None = 65536
    #: Sequence numbers of evicted exchanges remembered per channel.
    #: Packets of a *tombstoned* exchange are forwarded unverified
    #: (graceful degradation: the relay once verified this exchange's
    #: S1 and chose to shed its state, so eviction must not censor the
    #: exchange — chain elements are single-use, and dropping would turn
    #: memory pressure into a permanent delivery black hole). Packets of
    #: never-seen exchanges still follow ``strict``.
    evicted_memory: int = 256


#: Attack-facing attribution for every drop reason. The precise reason
#: strings stay the authoritative record (and are pinned by conformance
#: tests); the categories exist so the attack grid in
#: ``benchmarks/bench_attack_filtering.py`` can report drops by *cause*
#: — forged / tampered / replayed / reordered / flooded — instead of a
#: flat ``dropped`` total. Unlisted reasons attribute to ``"policy"``.
DROP_CATEGORIES: dict[str, str] = {
    # Fabricated key material: hash-chain / disclosed-key verification
    # failed outright, which a genuine endpoint cannot produce.
    "s1-bad-chain-element": "forged",
    "a1-bad-chain-element": "forged",
    "a1-wrong-echo": "forged",
    "s2-bad-key": "forged",
    "a2-bad-key": "forged",
    "a2-bad-verdict": "forged",
    # Valid key material over the wrong bytes: content was altered
    # between the pre-signature and the disclosure.
    "s2-bad-payload": "tampered",
    "s2-key-mismatch": "tampered",
    "a2-key-mismatch": "tampered",
    # Chain elements or exchange ids presented out of their one-shot
    # position: replayed (or rerouted stale) traffic.
    "s1-even-position": "replayed",
    "a1-even-position": "replayed",
    "a2-odd-position": "replayed",
    "s2-wrong-key-index": "replayed",
    "s1-journal-mismatch": "replayed",
    "s2-unknown-exchange": "replayed",
    "a1-unknown-exchange": "replayed",
    "a2-unknown-exchange": "replayed",
    # S2 before its exchange's A1: out-of-order interlock traffic.
    "s2-unsolicited": "reordered",
    "s1-over-allowance": "flooded",
    "malformed": "malformed",
    "malformed-hs1": "malformed",
    "malformed-hs2": "malformed",
}
#: ``stats`` key of each drop reason's category, built once so a drop
#: formats no key.
_DROP_KEYS = {
    reason: f"dropped.{category}" for reason, category in DROP_CATEGORIES.items()
}


#: Registry counters read as the sum of these :attr:`RelayEngine.stats` keys.
_STATS_SUMS = {
    "relay.admits": ("s1-ok",),
    "relay.reanchors": ("s1-reanchored",),
    "relay.parse_drops": ("malformed",),
    "relay.restores": ("restored",),
    "relay.evictions": ("evicted.ttl", "evicted.capacity"),
    "relay.tombstone_forwards": tuple(
        f"{kind}-evicted-unverified" for kind in ("s1", "a1", "s2", "a2")
    ),
    "relay.restore_passthrough": (
        "a1-recovering", "s2-recovering", "a2-recovering", "a2-prejournal"
    ),
}


def _sum_keys(stats: dict[str, int], keys: tuple[str, ...]) -> int:
    return sum(stats.get(key, 0) for key in keys)


def _relay_samples(stats: dict[str, int]) -> dict:
    """The registry's view of one engine: its ``stats`` book."""
    samples = {
        f"relay.{key}": functools.partial(stats.get, key, 0)
        for key in ("forwarded", "dropped", "dropped.policy", *_DROP_KEYS.values())
    }
    for name, keys in _STATS_SUMS.items():
        samples[name] = functools.partial(_sum_keys, stats, keys)
    return samples


@dataclass(frozen=True, slots=True)
class RelayDecision:
    """Outcome of :meth:`RelayEngine.handle` for one packet.

    Immutable: each fixed outcome is one shared instance, so judging a
    packet allocates no decision.
    """

    forward: bool
    reason: str
    verified: bool = False
    #: The verified payload of an S2 at an extracting relay, else empty.
    extracted: tuple = ()
    #: The :attr:`RelayEngine.stats` keys this decision books, built
    #: once: the reason, then ``forwarded``, or ``dropped`` and the
    #: drop's ``dropped.<category>`` key.
    stats: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.forward:
            keys = (self.reason, "forwarded")
        else:
            keys = (
                self.reason, "dropped", _DROP_KEYS.get(self.reason, "dropped.policy")
            )
        object.__setattr__(self, "stats", keys)


def _shared(forward: bool, verified: bool, *reasons: str) -> dict[str, RelayDecision]:
    return {reason: RelayDecision(forward, reason, verified) for reason in reasons}


#: The shared decision of every fixed outcome, by reason. Only an
#: extracting relay's verified S2 gets a fresh one, which carries the
#: payload.
_VERIFIED = _shared(
    True, True, "s1-ok", "s1-reanchored", "a1-ok", "a1-rejournaled", "s2-ok", "a2-ok"
)
_UNVERIFIED = _shared(
    True,
    False,
    "s1-retransmit",
    "a1-retransmit",
    "a2-prejournal",
    "unknown-association",
    "not-alpha",
    "hs1-observed",
    "hs2-observed",
    "hs2-without-hs1",
    "s1-evicted-unverified",
    *(
        f"{kind}-{outcome}"
        for kind in ("a1", "s2", "a2")
        for outcome in ("evicted-unverified", "recovering", "unverified")
    ),
)
_DROPPED = _shared(False, False, *DROP_CATEGORIES, "s1-mismatch", "unknown-association")


@dataclass
class ExtractedMessage:
    """A payload a relay verified and could act upon (e.g. signaling)."""

    assoc_id: int
    seq: int
    msg_index: int
    message: bytes
    signer: str


@dataclass(slots=True)
class _RelayExchange(S1Commitment):
    a1_seen: bool = False
    #: The A1's ack-chain element, kept for the crash journal: a
    #: restarted relay authenticates the verifier's repeated A1 against
    #: this value (the element itself is consumed and can never
    #: re-verify on-chain).
    a1_element: ChainElement | None = None
    #: Set on a re-anchored exchange whose pre-crash A1 buffers were
    #: lost: the journaled ``(index, value)`` the next witnessed A1 must
    #: match to re-populate the pre-ack state.
    expected_a1: tuple[int, bytes] | None = None
    pre_acks: Sequence[bytes] = ()
    pre_nacks: Sequence[bytes] = ()
    amt_root: bytes | None = None
    ack_key_value: bytes | None = None
    #: Simulated time of the last packet that touched this exchange.
    last_seen: float = 0.0
    #: :attr:`buffered_bytes` as the channel's running total counts it,
    #: kept by the channel so an eviction does not re-sum the buffers.
    held_bytes: int = 0

    @property
    def buffered_bytes(self) -> int:
        # Spelled out: zero-argument super() fails in a slotted dataclass.
        return (
            len(b"".join(self.pre_signatures))
            + len(b"".join(self.pre_acks))
            + len(b"".join(self.pre_nacks))
            + (len(self.amt_root) if self.amt_root else 0)
        )


class _ChannelObserver:
    """Relay-side view of one simplex channel (signer -> verifier)."""

    def __init__(
        self,
        hash_fn: HashFunction,
        signer_name: str,
        sig_anchor: ChainElement,
        ack_anchor: ChainElement,
        config: RelayConfig,
        stats: dict[str, int] | None = None,
        obs: Observability | None = None,
        node: str = "",
        assoc_id: int = 0,
    ) -> None:
        self._obs = obs if obs is not None else OBS_OFF
        self._node = node or "relay"
        self._hash = hash_fn
        self.signer_name = signer_name
        self.assoc_id = assoc_id
        self.sig_verifier = ChainVerifier(hash_fn, sig_anchor)
        self.ack_verifier = ChainVerifier(hash_fn, ack_anchor, tags=ACKNOWLEDGMENT_TAGS)
        self.config = config
        #: The engine's :attr:`RelayEngine.stats`, where evictions are
        #: booked beside the decisions.
        self.stats = stats if stats is not None else {}
        self.exchanges: dict[int, _RelayExchange] = {}
        # ``(last_seen, seq)`` of every buffered exchange, kept sorted
        # where exchanges are buffered, touched and evicted, so the
        # capacity-eviction victim is always ``_order[0]``.
        self._order: list[tuple[float, int]] = []
        # Running sum of ``ex.buffered_bytes`` over ``exchanges``, kept
        # where buffers change (S1 buffering, A1 commit, eviction) so the
        # byte cap is O(1) per check instead of a re-total per packet.
        self._buffered_bytes = 0
        # Tombstones of evicted exchanges (insertion-ordered, bounded):
        # their in-flight packets degrade to unverified forwarding
        # instead of being censored by the strict unknown-exchange drop.
        self.evicted: dict[int, None] = {}
        #: Journal records of pre-crash exchanges awaiting re-anchor
        #: (seq -> compact record). Until the committed S1 is witnessed
        #: again, their packets pass through unverified; a recovering
        #: entry that outlives the exchange TTL degrades to a tombstone.
        self.recovering: dict[int, dict] = {}
        # A lower bound on every ``last_seen`` in ``exchanges`` and every
        # ``restored_at`` in ``recovering`` (infinite when both are
        # empty). While ``now - _oldest <= ttl`` nothing can expire, so
        # :meth:`prune` skips its scan.
        self._oldest = float("inf")
        self.s1_allowance = config.initial_s1_allowance

    def prune(self, now: float) -> None:
        """TTL eviction of the S1/A1 buffers.

        Called before every packet is judged, so stale exchanges age
        out no matter what a flooding sender does. The byte ceiling is
        enforced where buffers grow (S1 buffering, A1 commit), so
        occupancy never exceeds it between packets. Returns at once
        while the ``_oldest`` watermark proves nothing has expired.
        """
        ttl = self.config.exchange_ttl_s
        if ttl is not None and now - self._oldest > ttl:
            expired = [
                seq
                for seq, exchange in self.exchanges.items()
                if now - exchange.last_seen > ttl
            ]
            stats = self.stats
            for seq in expired:
                self._evict(seq, now, "ttl")
                stats["evicted.ttl"] = stats.get("evicted.ttl", 0) + 1
            # A journal record nobody re-anchored within the TTL is a
            # dead or completed exchange; degrade it to a tombstone so a
            # straggler packet is still never censored.
            stale = [
                seq
                for seq, record in self.recovering.items()
                if now - record["restored_at"] > ttl
            ]
            for seq in stale:
                del self.recovering[seq]
                self._remember_tombstone(seq)
            self._oldest = min(
                [ex.last_seen for ex in self.exchanges.values()]
                + [record["restored_at"] for record in self.recovering.values()],
                default=float("inf"),
            )

    def _remember_tombstone(self, seq: int) -> None:
        self.evicted.pop(seq, None)
        self.evicted[seq] = None
        while len(self.evicted) > self.config.evicted_memory:
            del self.evicted[next(iter(self.evicted))]

    def _evict(self, seq: int, now: float = 0.0, reason: str = "") -> None:
        """Drop buffered state for ``seq``, leaving a tombstone."""
        exchange = self.exchanges.pop(seq)
        self._order.remove((exchange.last_seen, seq))
        self._buffered_bytes -= exchange.held_bytes
        self._remember_tombstone(seq)
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.RELAY_EVICT, self.assoc_id, seq,
                info=reason,
            )

    def _enforce_byte_cap(self, now: float = 0.0) -> None:
        """Evict least recently touched exchanges until under the byte
        ceiling; returns at once while the running total is under it.

        Never evicts the last remaining exchange: one in-progress
        exchange must always fit, or the channel could not make
        progress at all.
        """
        cap = self.config.max_buffered_bytes
        if cap is None or self._buffered_bytes <= cap:
            return
        stats = self.stats
        while len(self.exchanges) > 1 and self._buffered_bytes > cap:
            self._evict(self._least_recent(), now, "byte-cap")
            stats["evicted.capacity"] = stats.get("evicted.capacity", 0) + 1

    def _least_recent(self) -> int:
        """Sequence number of the least recently touched exchange.

        Under pipelining the lowest sequence number may be the exchange
        the peer is actively retransmitting (and therefore the worst
        possible eviction victim), so capacity eviction is keyed on
        ``last_seen`` with the sequence number only as a deterministic
        tie-break: the head of ``_order``.
        """
        return self._order[0][1]

    def _touch(self, exchange: _RelayExchange, now: float) -> None:
        """Stamp ``exchange`` at ``now``, keeping ``_order`` sorted and
        ``_oldest`` a lower bound."""
        last_seen = exchange.last_seen
        if now != last_seen:
            order = self._order
            order.remove((last_seen, exchange.seq))
            insort(order, (now, exchange.seq))
        exchange.last_seen = now
        if now < self._oldest:
            self._oldest = now

    def _tombstone(self, seq: int, now: float, reason: str) -> RelayDecision:
        """Forward a tombstoned exchange's packet unverified."""
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.RELAY_TOMBSTONE, self.assoc_id,
                seq, info=reason,
            )
        return _UNVERIFIED[reason]

    def _passthrough(self, seq: int, now: float, reason: str) -> RelayDecision:
        """Degraded restart mode: forward a recovering exchange's packet
        unverified until its S1 re-anchors the journal record."""
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.RELAY_PASSTHROUGH, self.assoc_id,
                seq, info=reason,
            )
        return _UNVERIFIED[reason]

    # -- crash journal (PROTOCOL.md §13) ---------------------------------------

    def snapshot(self) -> dict:
        """Compact, JSON-serializable journal of this channel.

        Per exchange only the anchors are kept — the committed S1 chain
        element, a digest pinning the committed pre-signatures, the A1
        ack element once seen, and the S2 and A2 keys once pinned —
        never the pre-signature/pre-ack buffers themselves, so the
        journal stays O(digest) per exchange where the live buffer is
        O(n · h).
        """
        records: list[dict] = []
        for seq in sorted(set(self.exchanges) | set(self.recovering)):
            exchange = self.exchanges.get(seq)
            if exchange is None:
                # Still recovering from the previous crash: re-journal
                # the record as-is (minus the restart timestamp).
                record = {
                    k: v for k, v in self.recovering[seq].items()
                    if k != "restored_at"
                }
                records.append(record)
                continue
            record = {
                "seq": seq,
                "mode": int(exchange.mode),
                "reliable": exchange.reliable,
                "message_count": exchange.message_count,
                "s1_index": exchange.s1_element.index,
                "s1_value": exchange.s1_element.value.hex(),
                "s1_digest": self._hash.digest(
                    b"".join(exchange.pre_signatures), label="relay-journal"
                ).hex(),
            }
            if exchange.a1_seen and exchange.a1_element is not None:
                record["a1_index"] = exchange.a1_element.index
                record["a1_value"] = exchange.a1_element.value.hex()
            elif exchange.expected_a1 is not None:
                record["a1_index"] = exchange.expected_a1[0]
                record["a1_value"] = exchange.expected_a1[1].hex()
            if exchange.key_value is not None:
                record["key_value"] = exchange.key_value.hex()
            if exchange.ack_key_value is not None:
                record["ack_key_value"] = exchange.ack_key_value.hex()
            records.append(record)
        return {
            "signer": self.signer_name,
            "sig_trusted": [
                self.sig_verifier.trusted.index,
                self.sig_verifier.trusted.value.hex(),
            ],
            "ack_trusted": [
                self.ack_verifier.trusted.index,
                self.ack_verifier.trusted.value.hex(),
            ],
            "s1_allowance": self.s1_allowance,
            "evicted": list(self.evicted),
            "exchanges": records,
        }

    def apply_journal(self, record: dict, now: float) -> None:
        """Load a :meth:`snapshot` into a freshly constructed channel.

        The channel must have been built with the journaled trusted
        positions as its anchors; this restores the allowance, the
        eviction ledger, and the recovering-exchange records.
        """
        self.s1_allowance = record["s1_allowance"]
        for seq in record["evicted"]:
            self._remember_tombstone(seq)
        for entry in record["exchanges"]:
            self.recovering[entry["seq"]] = dict(entry, restored_at=now)
        if now < self._oldest:
            self._oldest = now

    def _reanchor_s1(
        self, record: dict, packet: S1Packet, wire_size: int, now: float
    ) -> RelayDecision:
        """Re-anchor a journaled exchange from a witnessed S1.

        The journal pins the exact S1 the pre-crash relay committed to
        (chain element + pre-signature digest); the chain element itself
        was consumed before the crash and can never re-verify, so the
        journal *is* the authentication. A matching retransmission
        rebuilds the full buffered exchange from the packet; anything
        else claiming this seq is dropped exactly as the live relay
        would have dropped a mismatched resend.
        """
        if wire_size > self.s1_allowance:
            return _DROPPED["s1-over-allowance"]
        digest = self._hash.digest(
            b"".join(packet.pre_signatures), label="relay-journal"
        )
        same = (
            packet.chain_index == record["s1_index"]
            and packet.chain_element == bytes.fromhex(record["s1_value"])
            and digest.hex() == record["s1_digest"]
            and int(packet.mode) == record["mode"]
            and packet.reliable == record["reliable"]
            and packet.message_count == record["message_count"]
        )
        if not same:
            return _DROPPED["s1-journal-mismatch"]
        exchange = _RelayExchange.from_s1(
            packet, new_element((packet.chain_index, packet.chain_element))
        )
        if record.get("key_value"):
            exchange.key_value = bytes.fromhex(record["key_value"])
        if record.get("ack_key_value"):
            # The pinned A2 key's chain element was consumed pre-crash,
            # so later A2s can only be checked against the journal.
            exchange.ack_key_value = bytes.fromhex(record["ack_key_value"])
        if record.get("a1_value") is not None:
            exchange.expected_a1 = (
                record["a1_index"],
                bytes.fromhex(record["a1_value"]),
            )
        del self.recovering[packet.seq]
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.RELAY_REANCHOR, self.assoc_id,
                packet.seq, info=f"s1 index={packet.chain_index}",
            )
        self._buffer_s1(exchange, now)
        return _VERIFIED["s1-reanchored"]

    def _buffer_s1(self, exchange: _RelayExchange, now: float) -> None:
        """Buffer an accepted S1's exchange, then shed exchanges over the
        entry cap and the byte cap."""
        seq = exchange.seq
        self.evicted.pop(seq, None)
        exchange.last_seen = now
        # A fresh record holds only its pre-signatures.
        held = exchange.held_bytes = len(b"".join(exchange.pre_signatures))
        exchanges = self.exchanges
        exchanges[seq] = exchange
        insort(self._order, (now, seq))
        self._buffered_bytes += held
        if now < self._oldest:
            self._oldest = now
        stats = self.stats
        while len(exchanges) > self.config.max_buffered_exchanges:
            self._evict(self._least_recent(), now, "entry-cap")
            stats["evicted.capacity"] = stats.get("evicted.capacity", 0) + 1
        self._enforce_byte_cap(now)

    def on_s1(self, packet: S1Packet, wire_size: int, now: float = 0.0) -> RelayDecision:
        record = self.recovering.get(packet.seq)
        if record is not None:
            return self._reanchor_s1(record, packet, wire_size, now)
        if wire_size > self.s1_allowance:
            return _DROPPED["s1-over-allowance"]
        existing = self.exchanges.get(packet.seq)
        if existing is not None:
            # Retransmission of a buffered exchange: identical content
            # verifies trivially against the buffer.
            if (
                existing.s1_element.value == packet.chain_element
                and existing.pre_signatures == packet.pre_signatures
            ):
                self._touch(existing, now)
                return _UNVERIFIED["s1-retransmit"]
            return _DROPPED["s1-mismatch"]
        if packet.chain_index % 2 == 0:
            # Reformatting-attack defence: S1 tokens are odd-position
            # elements by construction (Section 3.2.1).
            return _DROPPED["s1-even-position"]
        element = new_element((packet.chain_index, packet.chain_element))
        if not self.sig_verifier.admit(element):
            if packet.seq in self.evicted:
                # Evicted exchange: its element was consumed when the
                # original S1 verified and can never verify again (a
                # committed token never re-enters the derived cache).
                # Degrade to unverified forwarding rather than
                # censoring the retransmission.
                return self._tombstone(packet.seq, now, "s1-evicted-unverified")
            return _DROPPED["s1-bad-chain-element"]
        if self._obs.enabled:
            self._obs.tracer.emit(
                now, self._node, EventKind.RELAY_ADMIT, self.assoc_id,
                packet.seq,
                info=f"bytes={sum(len(sig) for sig in packet.pre_signatures)}",
            )
        self._buffer_s1(_RelayExchange.from_s1(packet, element), now)
        return _VERIFIED["s1-ok"]

    def _unknown_exchange(self, kind: str, seq: int, now: float) -> RelayDecision:
        """Judge a ``kind`` packet (``a1``, ``s2``, ``a2``) of an
        exchange this channel holds no buffered state for."""
        if seq in self.recovering:
            return self._passthrough(seq, now, f"{kind}-recovering")
        if seq in self.evicted:
            return self._tombstone(seq, now, f"{kind}-evicted-unverified")
        if self.config.strict:
            return _DROPPED[f"{kind}-unknown-exchange"]
        return _UNVERIFIED[f"{kind}-unverified"]

    def _commit_a1(
        self,
        exchange: _RelayExchange,
        packet: A1Packet,
        element: ChainElement,
        now: float,
    ) -> None:
        """Buffer what an authentic A1 commits to, shedding exchanges over
        the byte cap; the destination was willing, so grow the sender's
        S1 allowance.

        An exchange commits one A1 at most, so its pre-ack, pre-nack
        and AMT root bytes add to the running total. The lists are the
        decoded packet's own, which dies with :meth:`RelayEngine.handle`.
        """
        exchange.a1_seen = True
        exchange.a1_element = element
        pre_acks = exchange.pre_acks = packet.pre_acks
        pre_nacks = exchange.pre_nacks = packet.pre_nacks
        amt_root = exchange.amt_root = packet.amt_root
        added = len(b"".join(pre_acks)) + len(b"".join(pre_nacks))
        if amt_root:
            added += len(amt_root)
        exchange.held_bytes += added
        self._buffered_bytes += added
        self._enforce_byte_cap(now)
        self.s1_allowance = min(self.s1_allowance * 2, MAX_S1_ALLOWANCE)

    def on_a1(self, packet: A1Packet, now: float = 0.0) -> RelayDecision:
        if packet.ack_index % 2 == 0:
            return _DROPPED["a1-even-position"]
        exchange = self.exchanges.get(packet.seq)
        if exchange is None:
            return self._unknown_exchange("a1", packet.seq, now)
        self._touch(exchange, now)
        if exchange.a1_seen:
            # Duplicate A1 (answering an S1 retransmission): the chain
            # element was already consumed, just pass it along.
            return _UNVERIFIED["a1-retransmit"]
        element = new_element((packet.ack_index, packet.ack_element))
        if exchange.expected_a1 is not None and (
            (packet.ack_index, packet.ack_element) == exchange.expected_a1
            and packet.echo_sig_element == exchange.s1_element.value
        ):
            # Re-anchored exchange: the verifier's repeated A1 matches
            # the journaled ack element (consumed pre-crash, so it can
            # never re-verify on-chain) — re-populate the pre-ack
            # buffers the crash lost.
            exchange.expected_a1 = None
            self._commit_a1(exchange, packet, element, now)
            if self._obs.enabled:
                self._obs.tracer.emit(
                    now, self._node, EventKind.RELAY_REANCHOR, self.assoc_id,
                    packet.seq, info=f"a1 index={packet.ack_index}",
                )
            return _VERIFIED["a1-rejournaled"]
        if not self.ack_verifier.admit(element):
            return _DROPPED["a1-bad-chain-element"]
        if packet.echo_sig_element != exchange.s1_element.value:
            return _DROPPED["a1-wrong-echo"]
        self._commit_a1(exchange, packet, element, now)
        return _VERIFIED["a1-ok"]

    def on_s2(self, packet: S2Packet, now: float = 0.0) -> RelayDecision:
        exchange = self.exchanges.get(packet.seq)
        if exchange is None:
            return self._unknown_exchange("s2", packet.seq, now)
        self._touch(exchange, now)
        if (
            not exchange.a1_seen
            and self.config.require_a1_for_s2
            and exchange.expected_a1 is None
        ):
            # A journaled A1 (expected_a1 pending re-journal) counts as
            # solicited: the pre-crash relay witnessed the willingness.
            return _DROPPED["s2-unsolicited"]
        reason = check_s2_key(self.sig_verifier, exchange, packet)
        if reason is not None:
            return _DROPPED["s2-" + reason]
        if not verify_s2(self._hash, exchange, packet):
            return _DROPPED["s2-bad-payload"]
        return _VERIFIED["s2-ok"]

    def on_a2(self, packet: A2Packet, now: float = 0.0) -> RelayDecision:
        exchange = self.exchanges.get(packet.seq)
        if exchange is None:
            return self._unknown_exchange("a2", packet.seq, now)
        self._touch(exchange, now)
        if exchange.expected_a1 is not None and not exchange.pre_acks:
            # Re-anchored but the repeated A1 (with the pre-ack buffers)
            # has not come past yet: an A2 racing it cannot be judged,
            # so it passes unverified rather than being censored.
            return self._passthrough(packet.seq, now, "a2-prejournal")
        reason = check_a2_key(self.ack_verifier, exchange, packet)
        if reason is not None:
            return _DROPPED["a2-" + reason]
        for verdict in packet.verdicts:
            if not verify_verdict(self._hash, exchange, verdict):
                return _DROPPED["a2-bad-verdict"]
        return _VERIFIED["a2-ok"]

    @property
    def buffered_bytes(self) -> int:
        return self._buffered_bytes


@dataclass
class _RelayAssociation:
    initiator: str
    responder: str
    hash_name: str
    forward_channel: _ChannelObserver  # initiator signs
    reverse_channel: _ChannelObserver  # responder signs


class RelayEngine:
    """Per-node relay state across all observed associations.

    Call :meth:`handle` for every transit packet. The engine learns
    anchors by observing handshakes (dynamic bootstrapping) or via
    :meth:`provision` (static bootstrapping, e.g. WSN pre-deployment).

    With ``extract`` set, every payload the relay verifies in transit
    is kept in :attr:`extracted` until :meth:`drain_extracted` takes it
    (e.g. a signaling middlebox); without it the relay keeps none.
    """

    def __init__(
        self,
        hash_fn: HashFunction,
        config: RelayConfig | None = None,
        obs: Observability | None = None,
        name: str = "",
        hop: int = 0,
        extract: bool = False,
    ) -> None:
        self._hash = hash_fn
        self._obs = obs if obs is not None else OBS_OFF
        self.name = name or "relay"
        #: Hop ordinal on the path (1 = first relay after the signer).
        #: Stamped into the per-packet trace context so a multi-hop
        #: timeline stitches signer → relay1 → relay2 → verifier events
        #: of one exchange together (PROTOCOL.md §16). 0 = unplaced
        #: (single-relay topologies keep their historical trace shape).
        self.hop = hop
        self.config = config if config is not None else RelayConfig()
        self._associations: dict[int, _RelayAssociation] = {}
        self._pending_hs1: dict[int, tuple[str, HandshakePacket]] = {}
        #: The relay's one book: each decision's keys
        #: (:attr:`RelayDecision.stats`), the evictions its channels make
        #: (``evicted.ttl``, ``evicted.capacity``) and ``restored``.
        self.stats: dict[str, int] = {}
        if self._obs.enabled:
            self._obs.registry.read(self, _relay_samples(self.stats))
        #: Keep each verified S2's payload for :meth:`drain_extracted`.
        self.extract = extract
        self.extracted: list[ExtractedMessage] = []

    def provision(
        self,
        assoc_id: int,
        initiator: str,
        responder: str,
        initiator_sig_anchor: ChainElement,
        initiator_ack_anchor: ChainElement,
        responder_sig_anchor: ChainElement,
        responder_ack_anchor: ChainElement,
        hash_name: str = "sha1",
    ) -> None:
        """Statically install an association's anchors (Section 3.4)."""
        self._associations[assoc_id] = _RelayAssociation(
            initiator=initiator,
            responder=responder,
            hash_name=hash_name,
            forward_channel=_ChannelObserver(
                self._hash,
                initiator,
                initiator_sig_anchor,
                responder_ack_anchor,
                self.config,
                stats=self.stats,
                obs=self._obs,
                node=self.name,
                assoc_id=assoc_id,
            ),
            reverse_channel=_ChannelObserver(
                self._hash,
                responder,
                responder_sig_anchor,
                initiator_ack_anchor,
                self.config,
                stats=self.stats,
                obs=self._obs,
                node=self.name,
                assoc_id=assoc_id,
            ),
        )

    def snapshot(self) -> dict:
        """Compact crash journal of every association (PROTOCOL.md §13).

        JSON-serializable and small by construction: committed chain
        positions, per-exchange anchors (chain element + pre-signature
        digest + A1 ack element), the S1 allowance, and the eviction
        ledger — never the buffered pre-signatures themselves. Feed it
        to :meth:`restore` to rebuild the engine after a crash.
        """
        return {
            "format": 1,
            "name": self.name,
            "hop": self.hop,
            "associations": [
                {
                    "assoc_id": assoc_id,
                    "initiator": assoc.initiator,
                    "responder": assoc.responder,
                    "hash_name": assoc.hash_name,
                    "forward": assoc.forward_channel.snapshot(),
                    "reverse": assoc.reverse_channel.snapshot(),
                }
                for assoc_id, assoc in sorted(self._associations.items())
            ],
        }

    @classmethod
    def restore(
        cls,
        hash_fn: HashFunction,
        journal: dict,
        config: RelayConfig | None = None,
        obs: Observability | None = None,
        name: str = "",
        now: float = 0.0,
    ) -> "RelayEngine":
        """Rebuild an engine from a :meth:`snapshot` journal.

        The restored relay starts in *pass-through-until-anchored* mode:
        chain verifiers resume at their committed positions (so new
        exchanges verify normally), tombstones survive (eviction still
        never censors), and each journaled exchange forwards unverified
        until its committed S1 is witnessed again and re-anchors it.
        """
        if journal.get("format") != 1:
            raise ValueError(f"unknown relay journal format: {journal.get('format')!r}")
        engine = cls(
            hash_fn,
            config=config,
            obs=obs,
            name=name or journal.get("name", ""),
            hop=journal.get("hop", 0),
        )
        recovering = 0
        for record in journal["associations"]:
            assoc_id = record["assoc_id"]
            assoc = _RelayAssociation(
                initiator=record["initiator"],
                responder=record["responder"],
                hash_name=record["hash_name"],
                forward_channel=engine._restore_channel(
                    assoc_id, record["forward"], now
                ),
                reverse_channel=engine._restore_channel(
                    assoc_id, record["reverse"], now
                ),
            )
            engine._associations[assoc_id] = assoc
            pending = len(assoc.forward_channel.recovering) + len(
                assoc.reverse_channel.recovering
            )
            recovering += pending
            if engine._obs.enabled:
                engine._obs.tracer.emit(
                    now, engine.name, EventKind.RELAY_RESTORED, assoc_id,
                    info=f"recovering={pending} tombstones="
                    f"{len(assoc.forward_channel.evicted) + len(assoc.reverse_channel.evicted)}",
                )
        engine.stats["restored"] = 1
        return engine

    def _restore_channel(
        self, assoc_id: int, record: dict, now: float
    ) -> _ChannelObserver:
        channel = _ChannelObserver(
            self._hash,
            record["signer"],
            ChainElement(
                record["sig_trusted"][0], bytes.fromhex(record["sig_trusted"][1])
            ),
            ChainElement(
                record["ack_trusted"][0], bytes.fromhex(record["ack_trusted"][1])
            ),
            self.config,
            stats=self.stats,
            obs=self._obs,
            node=self.name,
            assoc_id=assoc_id,
        )
        channel.apply_journal(record, now)
        return channel

    def handle(self, data: bytes, src: str, dst: str, now: float) -> RelayDecision:
        """Decide whether to forward one transit packet.

        The packet is decoded once; only bytes that do not decode are
        classified again, by header alone (:meth:`_undecodable`).
        """
        try:
            packet = decode_packet(data, self._hash.digest_size)
        except PacketError:
            return self._count(self._undecodable(data, now), now)
        kind = type(packet)
        if kind is HandshakePacket:
            if packet.is_response:
                return self._count(self._on_hs2(packet, src), now, packet)
            return self._count(self._on_hs1(packet, src), now, packet)
        assoc = self._associations.get(packet.assoc_id)
        if assoc is None:
            if not self.config.forward_unknown:
                return self._count(_DROPPED["unknown-association"], now, packet)
            # Even for unknown associations, S1-class packets only pass
            # at the *initial* size allowance: an attacker flooding large
            # S1s on fresh association ids gets clamped at the first
            # relay (Section 3.5).
            if kind is S1Packet and len(data) > self.config.initial_s1_allowance:
                return self._count(_DROPPED["s1-over-allowance"], now, packet)
            return self._count(_UNVERIFIED["unknown-association"], now, packet)
        forward_channel = assoc.forward_channel
        reverse_channel = assoc.reverse_channel
        # ``prune``'s own watermark test, made here so a channel with
        # nothing that may have expired costs no call.
        ttl = self.config.exchange_ttl_s
        if ttl is not None:
            if now - forward_channel._oldest > ttl:
                forward_channel.prune(now)
            if now - reverse_channel._oldest > ttl:
                reverse_channel.prune(now)
        if src == assoc.responder and src != assoc.initiator:
            signing, acking = reverse_channel, forward_channel
        else:
            # The initiator; source-spoofed or rerouted traffic is judged
            # by packet type against the forward channel as a
            # conservative default.
            signing, acking = forward_channel, reverse_channel
        if kind is S2Packet:
            decision = signing.on_s2(packet, now)
            if self.extract and decision.verified:
                message = ExtractedMessage(
                    assoc_id=packet.assoc_id,
                    seq=packet.seq,
                    msg_index=packet.msg_index,
                    message=packet.message,
                    signer=signing.signer_name,
                )
                self.extracted.append(message)
                decision = RelayDecision(True, decision.reason, True, (message,))
        elif kind is S1Packet:
            decision = signing.on_s1(packet, len(data), now)
        elif kind is A1Packet:
            decision = acking.on_a1(packet, now)
        else:
            decision = acking.on_a2(packet, now)
        return self._count(decision, now, packet)

    # -- internals -------------------------------------------------------------

    def _undecodable(self, data: bytes, now: float) -> RelayDecision:
        """Judge bytes :func:`decode_packet` rejected, by their header:
        a non-ALPHA header passes, a broken ALPHA packet drops."""
        try:
            packet_type = peek_type(data)
        except PacketError:
            return _UNVERIFIED["not-alpha"]
        if packet_type is PacketType.HS1:
            return _DROPPED["malformed-hs1"]
        if packet_type is PacketType.HS2:
            return _DROPPED["malformed-hs2"]
        if self._obs.enabled:
            self._obs.tracer.emit(now, self.name, EventKind.PARSE_DROP, info="relay")
        return _DROPPED["malformed"]

    def _on_hs1(self, packet: HandshakePacket, src: str) -> RelayDecision:
        pending = self._pending_hs1
        pending.pop(packet.assoc_id, None)  # a repeat counts as the newest
        if len(pending) >= MAX_PENDING_HS1:
            del pending[next(iter(pending))]
        pending[packet.assoc_id] = (src, packet)
        return _UNVERIFIED["hs1-observed"]

    def _on_hs2(self, packet: HandshakePacket, src: str) -> RelayDecision:
        pending = self._pending_hs1.get(packet.assoc_id)
        if pending is None:
            return _UNVERIFIED["hs2-without-hs1"]
        initiator, hs1 = pending
        del self._pending_hs1[packet.assoc_id]
        self.provision(
            assoc_id=packet.assoc_id,
            initiator=initiator,
            responder=src,
            initiator_sig_anchor=ChainElement(hs1.sig_chain_length, hs1.sig_anchor),
            initiator_ack_anchor=ChainElement(hs1.ack_chain_length, hs1.ack_anchor),
            responder_sig_anchor=ChainElement(packet.sig_chain_length, packet.sig_anchor),
            responder_ack_anchor=ChainElement(packet.ack_chain_length, packet.ack_anchor),
            hash_name=packet.hash_name,
        )
        return _UNVERIFIED["hs2-observed"]

    def _count(
        self,
        decision: RelayDecision,
        now: float = 0.0,
        packet: AnyPacket | None = None,
    ) -> RelayDecision:
        """Book one decision in :attr:`stats` and, observed, trace it:
        every counted forward or drop is one ``relay-forward`` or
        ``relay-drop`` event, so the registry's counts match the trace."""
        stats = self.stats
        for key in decision.stats:
            stats[key] = stats.get(key, 0) + 1
        if self._obs.enabled:
            event = EventKind.RELAY_FORWARD if decision.forward else EventKind.RELAY_DROP
            reason = decision.reason
            if self.hop:
                reason = f"hop={self.hop} {reason}"
            self._obs.tracer.emit(
                now, self.name, event,
                getattr(packet, "assoc_id", 0), getattr(packet, "seq", 0),
                msg_index=getattr(packet, "msg_index", -1),
                info=reason,
            )
        return decision

    def drop_breakdown(self) -> dict[str, int]:
        """Dropped frames grouped by attack-facing cause.

        The categories are an attribution *heuristic* over the precise
        per-reason stats (which stay authoritative): e.g. an unknown
        exchange id usually means a replayed S2 from a finished
        exchange, but a rerouted frame lands in the same bucket.
        """
        return {
            key.split(".", 1)[1]: count
            for key, count in self.stats.items()
            if key.startswith("dropped.")
        }

    def drain_extracted(self) -> list[ExtractedMessage]:
        """Return and clear messages this relay verified in transit
        (always none unless it was built with ``extract``)."""
        messages, self.extracted = self.extracted, []
        return messages

    @property
    def buffered_bytes(self) -> int:
        """Total relay buffer footprint (Table 2's relay column)."""
        return sum(
            assoc.forward_channel.buffered_bytes + assoc.reverse_channel.buffered_bytes
            for assoc in self._associations.values()
        )

    def association_count(self) -> int:
        return len(self._associations)
