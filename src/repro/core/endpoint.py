"""The public entry point: an ALPHA host.

An :class:`AlphaEndpoint` plays both roles of the paper's duplex design:
for every association it owns a :class:`~repro.core.signer.SignerSession`
(outbound simplex channel) and a
:class:`~repro.core.verifier.VerifierSession` (inbound simplex channel),
each backed by its own pair of hash chains — the four-anchor shared
context of Section 3.1.

The endpoint is sans-IO like the sessions underneath: ``connect``,
``send``, ``on_packet`` and ``poll`` exchange ``(peer, payload)`` pairs,
and a transport adapter (:mod:`repro.transports.netsim`) moves them over the
simulator. Applications typically use exactly four methods::

    ep = AlphaEndpoint("s", EndpointConfig(mode=Mode.CUMULATIVE))
    hs1 = ep.connect("v", now=0.0)        # -> send to "v"
    ep.send("v", b"payload")              # queue protected data
    out = ep.on_packet(data, "v", now)    # feed received packets
    out = ep.poll(now)                    # drain timers/new exchanges
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field, fields
from typing import Callable

from repro.core.bootstrap import (
    ChainSet,
    PeerAnchors,
    build_handshake,
    validate_handshake,
)
from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.exceptions import AlphaError, ProtocolError
from repro.core.hashchain import ACKNOWLEDGMENT_TAGS, ChainVerifier
from repro.core.linkhealth import HealthLedger
from repro.core.packets import (
    A1Packet,
    A2Packet,
    HandshakePacket,
    PacketError,
    S1Packet,
    S2Packet,
    decode_packet,
)
from repro.core.resilience import (
    ExchangeFailed,
    PathManager,
    ResilienceStats,
)
from repro.core.signer import ChannelConfig, DeliveryReport, SignerSession
from repro.core.verifier import DeliveredMessage, VerifierSession
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import HashFunction, OpCounter, get_hash
from repro.crypto.signatures import SignatureScheme
from repro.obs import OBS_OFF, EventKind, Observability
from repro.obs.metrics import read_fields

#: Registry counters read from the endpoint's own ``stats`` block.
STATS_COUNTERS = {
    "endpoint.parse_drops": "corrupt_drops",
    "endpoint.dead_peers": "dead_peers",
    "resilience.failover.switches": "failovers",
    "resilience.failover.exhausted": "failovers_exhausted",
}


@dataclass(frozen=True)
class EndpointConfig(ChannelConfig):
    """Endpoint-wide protocol parameters: the :class:`ChannelConfig`
    every association's outbound channel starts from (an association is
    a duplex of two simplex channels, Section 3.1), plus the policy
    declared here."""

    hash_name: str = "sha1"
    chain_length: int = 2048
    #: Consecutive failed exchanges after which the peer is declared
    #: dead and the association marked DOWN (0 disables detection). A
    #: terminal ``rto-escape`` failure trips it at once: the probe
    #: budget already proved the path black-holed.
    dead_peer_threshold: int = 3
    resync_window: int = 128
    #: Refuse unauthenticated handshakes from peers.
    require_protected_handshake: bool = False
    #: Start a replacement handshake when this few exchanges remain on
    #: the outbound signature chain (0 disables automatic re-keying).
    #: Chains are finite — the paper uses "a different set of hash
    #: chains for each path", and a long-lived association needs fresh
    #: chains before the old ones run dry.
    rekey_threshold: int = 4
    #: Willingness policy (paper Section 3.5): called with each decoded
    #: S1; returning False withholds the A1, so relays never forward the
    #: sender's data packets. ``None`` accepts everything.
    accept_policy: Callable | None = None
    #: Attach an :class:`~repro.core.adaptive.AdaptiveController`, tuned
    #: by this config, to every association's signer: mode, batch size,
    #: and pipelining depth then track the observed loss/queue/RTT
    #: signals instead of staying pinned to the static channel values
    #: (PROTOCOL.md §10). ``None`` keeps the channel static.
    adaptive: AdaptiveConfig | None = None
    #: Per-peer mid-association failover budget (PROTOCOL.md §13; see
    #: PathManager).
    max_failovers: int = 8
    #: Routing callback invoked as ``(peer, old, new)`` with the demoted
    #: and promoted :class:`PathCandidate` on every switch — the
    #: transport layer re-points next-hops here. ``None`` means routing
    #: is external (e.g. the netsim already reroutes).
    on_path_switch: Callable | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.adaptive, (AdaptiveConfig, type(None))):
            raise TypeError("adaptive takes an AdaptiveConfig, or None")


@dataclass
class Association:
    """Duplex security context with one peer."""

    assoc_id: int
    peer: str
    initiator: bool
    chains: ChainSet
    signer: SignerSession | None = None
    verifier: VerifierSession | None = None
    established: bool = False
    hs_nonce: bytes = b""
    hs_bytes: bytes = b""
    #: Responder: the HS1 that ``hs_bytes`` answers; another HS1 with
    #: its nonce draws the same answer.
    hs_request: HandshakePacket | None = None
    hs_deadline: float = 0.0
    hs_retries: int = 0
    pending_sends: list[bytes] = field(default_factory=list)
    #: assoc_id of the replacement, once one was initiated or, on the
    #: responder, once the peer's re-key installed one.
    replacement_id: int | None = None
    #: Responder side of a peer's re-key: the association this one
    #: replaces. Cleared by the peer's first packet here, which proves
    #: the peer starts no more exchanges on the old chains.
    supersedes: int | None = None
    #: True once superseded by a replacement (kept around to drain).
    retired: bool = False
    #: Latest time a retired association waits for the peer to finish
    #: an exchange it started on the old chains (set on first check).
    drain_deadline: float | None = None
    #: Dead-peer detection tripped: the peer stopped answering.
    down: bool = False
    #: Feedback controller over the signer's channel (adaptive mode).
    controller: AdaptiveController | None = None
    #: The signer's completed-exchange count when the active path was
    #: last credited with progress (``PathManager.note_success``).
    completions_seen: int = 0


@dataclass
class EndpointOutput:
    """Everything one call produced: packets to send and app events."""

    replies: list[tuple[str, bytes]] = field(default_factory=list)
    delivered: list[tuple[str, DeliveredMessage]] = field(default_factory=list)
    reports: list[tuple[str, DeliveryReport]] = field(default_factory=list)
    #: Terminal failures: exchanges or handshakes that hit their retry
    #: cap (dead peer, persistent partition). One entry per exchange.
    failures: list[tuple[str, ExchangeFailed]] = field(default_factory=list)


class AlphaEndpoint:
    """A host speaking ALPHA on any number of associations."""

    def __init__(
        self,
        name: str,
        config: EndpointConfig | None = None,
        seed: int | str | None = None,
        identity: SignatureScheme | None = None,
        counter: OpCounter | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.name = name
        self.config = config if config is not None else EndpointConfig()
        self.obs = obs if obs is not None else OBS_OFF
        self.rng = DRBG(seed if seed is not None else f"endpoint:{name}")
        self.identity = identity
        self.hash_fn: HashFunction = get_hash(self.config.hash_name, counter)
        self._by_peer: dict[str, Association] = {}
        self._by_id: dict[int, Association] = {}
        #: The channel half of the config, as the plain type that
        #: ``set_channel_config`` and the adaptive controller produce.
        self._channel_config = ChannelConfig(
            **{f.name: getattr(self.config, f.name) for f in fields(ChannelConfig)}
        )
        #: Endpoint-level resilience counters (handshake failures, dead
        #: peers, parse drops); per-signer counters are folded in by
        #: :meth:`resilience_stats`.
        self.stats = ResilienceStats()
        if self.obs.enabled:
            self.obs.registry.read(self, read_fields(self.stats, STATS_COUNTERS))
        #: Counters absorbed from retired associations' sessions, one
        #: block per peer. Kept separate from :attr:`stats` so live
        #: blocks are never merged into a block that outlives them —
        #: snapshots stay idempotent no matter how often they are taken.
        self._drained: dict[str, ResilienceStats] = {}
        #: Worst max-RTO pin streak among retired signers (see
        #: :meth:`max_rto_streak_peak`).
        self._drained_rto_peak = 0
        #: Per-link health ledger (PROTOCOL.md §11). Entries outlive
        #: associations, so re-keyed channels inherit the link's loss
        #: history instead of relearning it. Maintained whenever the
        #: endpoint is adaptive (the controller seeds from it) or
        #: observed (the ledger feeds ``link.*`` metrics); otherwise it
        #: stays empty and the engines skip their ``link`` hooks. An
        #: entry reads its signer counters from :meth:`resilience_stats`
        #: (held weakly, as the escape hook holds the endpoint).
        self.links = HealthLedger(
            self.obs.registry if self.obs.enabled else None,
            functools.partial(AlphaEndpoint.resilience_stats, weakref.proxy(self)),
        )
        self._track_links = self.config.adaptive is not None or self.obs.enabled
        #: Ranked alternate relay paths per peer (PROTOCOL.md §13).
        #: Populated by the application/transport via
        #: ``endpoint.paths.register(peer, path_id, hops)``. When a hop
        #: is classified dead, a registered backup path is promoted and
        #: the in-flight S1s are re-presented through it; with no path
        #: registered the association fails as if there were no manager.
        self.paths = PathManager(self.config.max_failovers)

    # -- association management ------------------------------------------------

    def connect(self, peer: str, now: float = 0.0) -> tuple[str, bytes]:
        """Start a dynamic handshake. Returns the HS1 to transmit."""
        existing = self._by_peer.get(peer)
        if existing is not None:
            if not existing.down:
                raise ProtocolError(f"association with {peer} already exists")
            # Reconnecting after dead-peer detection: retire the DOWN
            # association and let the fresh handshake supersede it.
            existing.retired = True
            del self._by_peer[peer]
        assoc_id = self.rng.random_int(63)
        assoc = self._open_handshake(assoc_id, peer, now, f"hs:{peer}")
        self._by_peer[peer] = assoc
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.HS_SEND, assoc_id, info="hs1"
            )
            self.obs.registry.counter("endpoint.handshakes_started").inc()
        return (peer, assoc.hs_bytes)

    def association(self, peer: str) -> Association:
        try:
            return self._by_peer[peer]
        except KeyError:
            raise ProtocolError(f"no association with {peer}") from None

    def association_by_id(self, assoc_id: int) -> Association:
        try:
            return self._by_id[assoc_id]
        except KeyError:
            raise ProtocolError(f"no association {assoc_id}") from None

    # -- data plane --------------------------------------------------------------

    def set_channel_config(self, peer: str, config: ChannelConfig) -> None:
        """Adapt the outbound channel to ``peer`` (mode, batch, policy)."""
        assoc = self.association(peer)
        if not assoc.established:
            raise ProtocolError(f"association with {peer} not yet established")
        assoc.signer.reconfigure(config)

    def send(self, peer: str, message: bytes) -> None:
        """Queue a message for integrity-protected delivery to ``peer``."""
        assoc = self.association(peer)
        if assoc.down:
            raise ProtocolError(
                f"association with {peer} is DOWN (dead peer); reconnect first"
            )
        if not assoc.established:
            assoc.pending_sends.append(message)
            return
        assoc.signer.submit(message)

    def peer_down(self, peer: str) -> bool:
        """True once dead-peer detection declared ``peer`` unreachable."""
        assoc = self._by_peer.get(peer)
        return assoc is not None and assoc.down

    def note_corrupt_arrival(self, src: str) -> None:
        """Charge one damaged arrival from ``src`` to the per-peer ledger.

        Transports call this for datagrams that died before or inside
        the parser: first-hand corruption evidence for the one-sided
        loss split (PROTOCOL.md §11).
        """
        if self._track_links:
            self.links.link(src).on_corrupt_arrival()

    def on_packet(self, data: bytes, src: str, now: float) -> EndpointOutput:
        """Process one received packet; returns packets to send + events."""
        out = EndpointOutput()
        try:
            packet = decode_packet(data, self.hash_fn.digest_size)
        except PacketError:
            self.stats.corrupt_drops += 1
            # Keyed by source peer unconditionally: parser deaths are
            # first-hand corruption evidence (PROTOCOL.md §11), and they
            # happen before any association lookup can vouch for the
            # source.
            self.note_corrupt_arrival(src)
            if self.obs.enabled:
                self.obs.tracer.emit(
                    now, self.name, EventKind.PARSE_DROP, info=f"src={src}"
                )
            return out
        if isinstance(packet, HandshakePacket):
            if self.obs.enabled:
                self.obs.tracer.emit(
                    now, self.name, EventKind.HS_RECV, packet.assoc_id,
                    info="hs2" if packet.is_response else "hs1",
                )
            self._on_handshake(packet, src, out, now)
            return out
        assoc = self._by_id.get(packet.assoc_id)
        if assoc is None or not assoc.established or assoc.peer != src:
            return out
        assoc.supersedes = None
        kind = type(packet)
        if kind is S2Packet:
            a2 = assoc.verifier.handle_s2(packet, now)
            if a2 is not None:
                out.replies.append((src, a2))
            for message in assoc.verifier.drain_delivered():
                out.delivered.append((src, message))
        elif kind is A2Packet:
            for s2 in assoc.signer.handle_a2(packet, now):
                out.replies.append((src, s2))
        elif kind is S1Packet:
            a1 = assoc.verifier.handle_s1(packet, now)
            if a1 is not None:
                out.replies.append((src, a1))
        elif kind is A1Packet:
            for s2 in assoc.signer.handle_a1(packet, now):
                out.replies.append((src, s2))
        self._collect_signer_output(assoc, now, out)
        return out

    def poll(self, now: float) -> EndpointOutput:
        """Service every association, in installation order.

        Servicing an association with nothing due is a no-op: the
        signer's and the controller's own polls are deadline-gated and
        draw no randomness on that path. The order is behaviour wherever
        the link draws per-packet randomness.
        """
        out = EndpointOutput()
        for assoc in list(self._by_id.values()):
            self._service_association(assoc, now, out)
        return out

    def next_deadline(self) -> float | None:
        """Earliest instant :meth:`poll` has work, or ``None`` when no
        association has any until new input arrives.

        Never late: a poll strictly before it emits no packet, delivery
        or failure, so an event loop may sleep or jump its clock here.
        """
        deadlines = []
        for assoc in self._by_id.values():
            if not assoc.established:
                if assoc.initiator:
                    deadlines.append(assoc.hs_deadline)
                continue
            if self._rekey_due(assoc):
                return 0.0
            deadline = assoc.signer.next_deadline()
            if deadline is not None:
                deadlines.append(deadline)
            if assoc.drain_deadline is not None:
                deadlines.append(assoc.drain_deadline)
            if assoc.controller is not None:
                deadlines.append(assoc.controller.next_tick)
        return min(deadlines, default=None)

    def _service_association(
        self, assoc: Association, now: float, out: EndpointOutput
    ) -> None:
        """One association's poll turn: timers, rekey check, drain."""
        if not assoc.established:
            # Initiator-side HS1 retransmission (the paper notes S1
            # and A1 class packets need robust retransmission; the
            # same holds for the optional handshake). The retry cap
            # is terminal: a handshake against a dead peer must fail
            # observably, not retransmit forever.
            if assoc.initiator and now >= assoc.hs_deadline:
                if assoc.hs_retries >= self.config.max_retries:
                    self._fail_handshake(assoc, out, now)
                    return
                assoc.hs_retries += 1
                assoc.hs_deadline = now + self.config.retransmit_timeout_s
                out.replies.append((assoc.peer, assoc.hs_bytes))
                if self.obs.enabled:
                    self.obs.tracer.emit(
                        now, self.name, EventKind.RETRANSMIT,
                        assoc.assoc_id,
                        info=f"hs1 try={assoc.hs_retries}",
                    )
            return
        self._collect_signer_output(assoc, now, out)
        if self._rekey_due(assoc):
            self._initiate_replacement(assoc, now, out, label="rekey")
        if assoc.retired and assoc.signer.idle and self._peer_done(assoc, now):
            # Preserve the drained association's counters before it goes.
            drained = self._drained.setdefault(assoc.peer, ResilienceStats())
            drained.merge(assoc.signer.stats).merge(assoc.verifier.stats)
            self._drained_rto_peak = max(
                self._drained_rto_peak, assoc.signer.max_rto_streak_peak
            )
            del self._by_id[assoc.assoc_id]
            # Release the peer mapping too, or it pins the whole
            # signer/verifier state in memory forever.
            if self._by_peer.get(assoc.peer) is assoc:
                del self._by_peer[assoc.peer]

    def _peer_done(self, assoc: Association, now: float) -> bool:
        """True once the peer can no longer be using a retired
        association's chains: it has sent on the replacement and every
        exchange it started here is delivered — or the drain deadline
        (the peer's whole retry schedule at the RTO ceiling) passed, so
        a lost unreliable S2 cannot pin the association forever."""
        replacement = self._by_id.get(assoc.replacement_id)
        if not assoc.verifier.awaiting_messages and (
            replacement is None or replacement.supersedes is None
        ):
            return True
        if assoc.drain_deadline is None:
            config = self.config
            assoc.drain_deadline = now + (config.max_retries + 1) * config.rto_max_s
        return now >= assoc.drain_deadline

    @property
    def busy(self) -> bool:
        """True while any association, retired ones included, has
        in-flight or queued work."""
        return any(
            not assoc.established or not assoc.signer.idle
            for assoc in self._by_id.values()
        )

    # -- internals ----------------------------------------------------------------

    def _create_chains(self) -> ChainSet:
        return ChainSet.create(
            self.hash_fn, self.rng.fork("chains"), self.config.chain_length
        )

    def _open_handshake(
        self, assoc_id: int, peer: str, now: float, rng_label: str
    ) -> Association:
        """Admit a half-open initiator association on fresh chains, its
        HS1 built and the retransmit timer armed."""
        chains = self._create_chains()
        packet = build_handshake(
            assoc_id=assoc_id,
            chains=chains,
            hash_name=self.config.hash_name,
            rng=self.rng.fork(rng_label),
            is_response=False,
            identity=self.identity,
        )
        assoc = Association(
            assoc_id=assoc_id,
            peer=peer,
            initiator=True,
            chains=chains,
            hs_nonce=packet.nonce,
            hs_bytes=packet.encode(),
            hs_deadline=now + self.config.retransmit_timeout_s,
        )
        self._by_id[assoc_id] = assoc
        return assoc

    def _install_association(
        self,
        assoc_id: int,
        peer: str,
        chains: ChainSet,
        peer_anchors: PeerAnchors,
        initiator: bool,
        now: float = 0.0,
    ) -> Association:
        assoc = self._by_id.get(assoc_id)
        if assoc is None:
            assoc = Association(
                assoc_id=assoc_id, peer=peer, initiator=initiator, chains=chains
            )
            previous = self._by_peer.get(peer)
            if previous is not None and previous.assoc_id != assoc_id:
                # Superseded by the peer's re-key: the peer retires its
                # side when our HS2 arrives, so only exchanges already
                # in flight may finish on the old chains. An association
                # the peer never answered (one installed by an HS1 with a
                # damaged id) hands over its in-flight messages too: the
                # peer drops every packet sent under that id.
                previous.retired = True
                previous.replacement_id = assoc_id
                assoc.supersedes = previous.assoc_id
                if previous.signer is not None:
                    assoc.pending_sends.extend(previous.signer.take_unsent())
            self._by_peer[peer] = assoc
            self._by_id[assoc_id] = assoc
        link = self.links.link(peer) if self._track_links else None
        assoc.signer = SignerSession(
            hash_fn=self.hash_fn,
            sig_chain=chains.signature,
            ack_verifier=ChainVerifier(
                self.hash_fn,
                peer_anchors.ack_anchor,
                tags=ACKNOWLEDGMENT_TAGS,
                resync_window=self.config.resync_window,
            ),
            config=self._channel_config,
            assoc_id=assoc_id,
            peer=peer,
            obs=self.obs,
            node=self.name,
            link=link,
        )
        # With re-keying armed, an exhausted chain parks the backlog for
        # the replacement association to migrate; with it off, exhaustion
        # must still raise out of poll() (there is no rescue coming).
        assoc.signer.defer_exhaustion = self.config.rekey_threshold > 0
        if link is not None:
            link.on_association()
        # Terminal rto-escape interception: the signer consults this
        # before failing an exchange; a successful path switch lets it
        # re-present the in-flight S1s instead (it calls its own
        # represent(), so the hook only moves the route). The hook holds
        # the endpoint weakly and the association not at all, so no
        # reference cycle runs through the signer: a dropped endpoint or
        # a retired association, chains and all, is freed at once
        # instead of waiting for the cycle collector.
        assoc.signer.escape_hook = functools.partial(
            AlphaEndpoint._switch_path, weakref.proxy(self),
            assoc.peer, assoc.assoc_id,
        )
        if self.config.adaptive is not None:
            assoc.controller = AdaptiveController(
                assoc.signer,
                config=self.config.adaptive,
                obs=self.obs,
                node=self.name,
                link=link,
            )
        assoc.verifier = VerifierSession(
            hash_fn=self.hash_fn,
            ack_chain=chains.acknowledgment,
            sig_verifier=ChainVerifier(
                self.hash_fn,
                peer_anchors.sig_anchor,
                resync_window=self.config.resync_window,
            ),
            assoc_id=assoc_id,
            rng=self.rng.fork(f"verifier:{peer}"),
            accept_policy=self.config.accept_policy,
            obs=self.obs,
            node=self.name,
            link=link,
        )
        assoc.established = True
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.ESTABLISHED, assoc_id,
                info=f"peer={peer}" + (" initiator" if initiator else ""),
            )
            self.obs.registry.counter("endpoint.associations").inc()
        for message in assoc.pending_sends:
            assoc.signer.submit(message)
        assoc.pending_sends.clear()
        if assoc.controller is not None:
            # Seed after the pending sends are queued, so the inherited
            # configuration's batch size sees the real backlog.
            assoc.controller.seed_from_link(now)
        return assoc

    def _on_handshake(
        self, packet: HandshakePacket, src: str, out: EndpointOutput,
        now: float = 0.0,
    ) -> None:
        if packet.is_response:
            assoc = self._by_id.get(packet.assoc_id)
            if (
                assoc is None or assoc.established or not assoc.initiator
                or assoc.peer != src
            ):
                return
            try:
                peer_anchors = validate_handshake(
                    packet,
                    expect_protected=self.config.require_protected_handshake,
                    expected_peer_nonce=assoc.hs_nonce,
                )
            except AlphaError:
                return
            established = self._install_association(
                packet.assoc_id, src, assoc.chains, peer_anchors,
                initiator=True, now=now,
            )
            self._migrate_if_replacement(established)
            return
        # HS1: we are the responder.
        existing = self._by_id.get(packet.assoc_id)
        if existing is not None:
            if existing.peer != src or not existing.hs_bytes:
                return
            if existing.initiator or packet.nonce == existing.hs_request.nonce:
                # Retransmitted HS1: repeat our answer.
                out.replies.append((src, existing.hs_bytes))
                return
        try:
            peer_anchors = validate_handshake(
                packet, expect_protected=self.config.require_protected_handshake
            )
        except AlphaError:
            return
        if existing is None:
            answered = self._by_peer.get(src)
            if (
                answered is not None
                and answered.hs_request is not None
                and peer_anchors == validate_handshake(answered.hs_request)
                and (
                    answered.verifier.sig_verifier.trusted != peer_anchors.sig_anchor
                    or answered.signer.ack_verifier.trusted != peer_anchors.ack_anchor
                )
            ):
                # An HS1 answered already, under a damaged id, and the
                # peer has since used the answer (an S1 or A1 moved a
                # verifier off its anchor): a genuine re-key brings fresh
                # anchors. Unused, the answer may be the damaged one, and
                # this HS1 the genuine retry that supersedes it.
                return
            chains = self._create_chains()
        elif peer_anchors == validate_handshake(existing.hs_request):
            # The HS1 answered was damaged in flight (a flipped nonce bit
            # still parses), so its HS2 echoes a nonce the initiator
            # rejects. Answer this one over the same chains: relays that
            # saw the first HS2 keep valid anchors.
            chains = existing.chains
        else:
            return
        response = build_handshake(
            assoc_id=packet.assoc_id,
            chains=chains,
            hash_name=self.config.hash_name,
            rng=self.rng.fork(f"hs:{src}"),
            is_response=True,
            peer_nonce=packet.nonce,
            identity=self.identity,
        )
        assoc = existing or self._install_association(
            packet.assoc_id, src, chains, peer_anchors, initiator=False, now=now
        )
        assoc.hs_request = packet
        assoc.hs_bytes = response.encode()
        out.replies.append((src, assoc.hs_bytes))
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.HS_SEND, packet.assoc_id, info="hs2"
            )

    def _rekey_due(self, assoc: Association) -> bool:
        """True when ``assoc`` should start a replacement handshake
        before its chains run dry."""
        if (
            self.config.rekey_threshold <= 0
            or not assoc.established
            or assoc.retired
            or assoc.down
            or not assoc.initiator
            or assoc.replacement_id is not None
        ):
            return False
        signature, acknowledgment = assoc.chains.signature, assoc.chains.acknowledgment
        remaining = min(
            signature.remaining_exchanges, acknowledgment.remaining_exchanges
        )
        if remaining > self.config.rekey_threshold:
            return False
        # Untouched chains: a replacement would re-key forever.
        return not (
            signature.remaining == signature.length
            and acknowledgment.remaining == acknowledgment.length
        )

    def _initiate_replacement(
        self, assoc: Association, now: float, out: EndpointOutput, label: str
    ) -> Association:
        """Start a fresh handshake that will supersede ``assoc``."""
        new_id = self.rng.random_int(63)
        replacement = self._open_handshake(
            new_id, assoc.peer, now, f"{label}:{assoc.peer}:{new_id}"
        )
        assoc.replacement_id = new_id
        out.replies.append((assoc.peer, replacement.hs_bytes))
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.REKEY, assoc.assoc_id,
                info=f"{label} new_assoc={new_id}",
            )
            self.obs.tracer.emit(
                now, self.name, EventKind.HS_SEND, new_id, info="hs1"
            )
            self.obs.registry.counter("endpoint.rekeys").inc()
        return replacement

    def _migrate_if_replacement(self, assoc: Association) -> None:
        """Point the peer mapping at a freshly established replacement."""
        current = self._by_peer.get(assoc.peer)
        if current is None or current.replacement_id != assoc.assoc_id:
            return
        # Queued-but-unsent messages move to the fresh chains; in-flight
        # exchanges finish on the old (established) association, which
        # is then drained and garbage-collected by poll().
        while current.signer._queue:
            assoc.signer.submit(current.signer._queue.popleft())
        current.retired = True
        self._by_peer[assoc.peer] = assoc

    def _collect_signer_output(
        self, assoc: Association, now: float, out: EndpointOutput
    ) -> None:
        signer, peer = assoc.signer, assoc.peer
        if assoc.controller is not None:
            # Re-tune before starting new exchanges so a decision made
            # this tick shapes the exchange this same poll opens.
            assoc.controller.poll(now)
        elif signer.turn_is_idle(assoc.completions_seen):
            # Nothing to time, start, drain, credit or weigh: the
            # receiving side's turn after each S1 and S2 (PROTOCOL.md §15).
            return
        for payload in signer.poll(now):
            out.replies.append((peer, payload))
        if signer.reports:
            for report in signer.drain_reports():
                out.reports.append((peer, report))
        escaped = False
        if signer.failures:
            for failure in signer.drain_failures():
                out.failures.append((peer, failure))
                if failure.reason == "rto-escape":
                    escaped = True
        completed = signer.stats.exchanges_completed
        if (
            completed > assoc.completions_seen
            and not assoc.retired
            and not assoc.down
        ):
            # Forward progress: the active path works; clear its mark.
            assoc.completions_seen = completed
            self.paths.note_success(peer)
        if escaped or signer.consecutive_failures:
            self._check_dead_peer(assoc, now, out, force=escaped)

    def _switch_path(
        self, peer: str, assoc_id: int, cause: str, now: float
    ) -> bool:
        """Promote the best backup path to ``peer``."""
        paths = self.paths
        if not paths.candidates(peer):
            return False
        old = paths.active(peer)
        new = paths.fail_over(peer)
        if new is None:
            self.stats.failovers_exhausted += 1
            if self.obs.enabled:
                self.obs.tracer.emit(
                    now, self.name, EventKind.FAILOVER_EXHAUSTED, assoc_id,
                    info=f"cause={cause} spent={paths.failover_count(peer)}",
                )
            return False
        self.stats.failovers += 1
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.FAILOVER, assoc_id,
                info=f"cause={cause} from={old.path_id} to={new.path_id}",
            )
        if self.config.on_path_switch is not None:
            self.config.on_path_switch(peer, old, new)
        return True

    def _check_dead_peer(
        self, assoc: Association, now: float, out: EndpointOutput, force: bool
    ) -> None:
        """Declare the peer dead after too many consecutive failures.

        ``force`` (a terminal rto-escape: the probe budget proved the
        path black-holed) skips the count, but ``dead_peer_threshold
        <= 0`` still disables detection. It also skips the failover
        attempt: the signer's escape hook made it already.
        """
        threshold = self.config.dead_peer_threshold
        if threshold <= 0 or assoc.down or assoc.retired:
            return
        if assoc.signer.consecutive_failures < threshold and not force:
            return
        # Hop death is not peer death: with a backup path registered,
        # move the association and re-present its in-flight S1s instead
        # of declaring the peer gone.
        if not force and self._switch_path(
            assoc.peer, assoc.assoc_id, "dead-peer", now
        ):
            assoc.signer.consecutive_failures = 0
            for payload in assoc.signer.represent(now):
                out.replies.append((assoc.peer, payload))
            return
        assoc.down = True
        self.stats.dead_peers += 1
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.DEAD_PEER, assoc.assoc_id,
                info=f"peer={assoc.peer}"
                f" failures={assoc.signer.consecutive_failures}",
            )
        # Queued traffic fails terminally, so callers never wait on a
        # peer that stopped answering; the application reconnects with
        # connect(). Drain (rather than use the return value) so the
        # failure is emitted exactly once.
        assoc.signer.fail_queued("dead-peer", now)
        for failure in assoc.signer.drain_failures():
            out.failures.append((assoc.peer, failure))

    def _fail_handshake(
        self, assoc: Association, out: EndpointOutput, now: float = 0.0
    ) -> None:
        """Tear down a half-open association whose HS1 retries ran out."""
        assoc.down = True
        self.stats.exchanges_failed += 1
        self.stats.dead_peers += 1
        if self.obs.enabled:
            self.obs.tracer.emit(
                now, self.name, EventKind.EXCHANGE_FAILED, assoc.assoc_id,
                info=f"handshake-timeout retries={assoc.hs_retries}",
            )
            self.obs.tracer.emit(
                now, self.name, EventKind.DEAD_PEER, assoc.assoc_id,
                info=f"peer={assoc.peer} handshake",
            )
        out.failures.append(
            (
                assoc.peer,
                ExchangeFailed(
                    peer=assoc.peer,
                    assoc_id=assoc.assoc_id,
                    seq=0,
                    retries=assoc.hs_retries,
                    reason="handshake-timeout",
                    messages=list(assoc.pending_sends),
                ),
            )
        )
        assoc.pending_sends.clear()
        del self._by_id[assoc.assoc_id]
        if self._by_peer.get(assoc.peer) is assoc:
            del self._by_peer[assoc.peer]
        parent = self._by_peer.get(assoc.peer)
        if parent is not None and parent.replacement_id == assoc.assoc_id:
            # The failed handshake was a re-key replacement: clear the
            # marker so the re-key check can try again, instead of leaving
            # the association wedged on a replacement that will never
            # establish (it would otherwise ride its chains to
            # exhaustion and stall every queued message).
            parent.replacement_id = None

    def resilience_stats(self, peer: str | None = None) -> ResilienceStats:
        """Aggregate counters: endpoint-level, drained, and live sessions.

        ``peer`` narrows the sum to that peer's sessions, drained and
        live; the link ledger reads its signer counters here.
        Idempotent: builds a fresh block every call without mutating any
        source, so repeated snapshots return identical totals.
        """
        if peer is None:
            kept = [self.stats, *self._drained.values()]
        else:
            kept = [self._drained.get(peer, ResilienceStats())]
        live = [
            assoc
            for assoc in self._by_id.values()
            if assoc.signer is not None and peer in (None, assoc.peer)
        ]
        # Both halves of the storm damper live under one counter: the
        # signer's token bucket and the verifier's duplicate-nack
        # suppression both record "a nack that was not acted on".
        return ResilienceStats.aggregate(
            *kept,
            *(assoc.signer.stats for assoc in live),
            *(assoc.verifier.stats for assoc in live),
        )

    def max_rto_streak_peak(self) -> int:
        """Worst run of consecutive timeouts any signer spent pinned at
        ``rto_max_s``. The escape hatch keeps this at or below
        ``RTO_PROBE_AFTER`` — the wedge-regression suite asserts exactly
        that.
        """
        return max(
            self._drained_rto_peak,
            *(
                assoc.signer.max_rto_streak_peak
                for assoc in self._by_id.values()
                if assoc.signer is not None
            ),
            0,
        )
