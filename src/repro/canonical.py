"""Canonical exchange replays: paper Figures 2–4 as driveable scripts.

Each runner builds a fresh signer → relay → verifier channel sharing one
enabled :class:`~repro.obs.Observability`, then drives the packets leg
by leg with an advancing simulated clock (``hop_delay_s`` per hop). The
resulting trace is deterministic, so the conformance suite can assert
the *exact* event sequence, and ``python -m repro trace`` can print it
as a worked timeline.

The four canonical exchanges:

- ``basic``     — base mode, unreliable: S1 → A1 → S2 (Figure 2).
- ``reliable``  — base mode, reliable: S1 → A1 → S2 → A2 (Figure 3).
- ``alpha-c``   — cumulative mode, unreliable n-burst: one S1 carries n
  pre-signature MACs, answered by one A1, followed by n S2s (Figure 4a).
- ``alpha-m``   — Merkle mode, reliable: one S1 carries the tree root,
  each S2 carries its authentication path, each answered by an A2.

A fifth replay, ``adaptive``, scripts a whole controller arc
(PROTOCOL.md §10): a quiet BASE exchange, a backlog that pulls the
channel into ALPHA-C, a burst-lossy stretch (the S1 is genuinely lost
and retransmitted) that pushes it into ALPHA-M, and the drain back to
BASE — with every ``adapt-switch`` decision on the timeline.

A sixth, ``multihop``, runs the reliable BASE exchange across *two*
relays (``relay1`` at hop 1, ``relay2`` at hop 2) so the trace shows a
hop-spanning timeline: every packet appears once per relay with its
``hop=N`` trace context, stitching signer → relay1 → relay2 → verifier
into one path (PROTOCOL.md §16).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro.core.adaptive import AdaptiveConfig, AdaptiveController
from repro.core.hashchain import ACKNOWLEDGMENT_TAGS, ChainVerifier, HashChain
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import S1Packet, decode_packet
from repro.core.relay import RelayConfig, RelayDecision, RelayEngine
from repro.core.signer import ChannelConfig, SignerSession
from repro.core.verifier import DeliveredMessage, VerifierSession
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import OpCounter, get_hash
from repro.obs import Observability

#: Association id used by every canonical replay.
CANONICAL_ASSOC = 0xA1FA

#: Name → (mode, reliability, message count).
CANONICAL_EXCHANGES: dict[str, tuple[Mode, ReliabilityMode, int]] = {
    "basic": (Mode.BASE, ReliabilityMode.UNRELIABLE, 1),
    "reliable": (Mode.BASE, ReliabilityMode.RELIABLE, 1),
    "alpha-c": (Mode.CUMULATIVE, ReliabilityMode.UNRELIABLE, 4),
    "alpha-m": (Mode.MERKLE, ReliabilityMode.RELIABLE, 4),
}

#: The scripted controller replay (separate from the fixed-mode four:
#: its mode changes mid-run by design).
ADAPTIVE_EXCHANGE = "adaptive"

#: The hop-spanning replay: reliable BASE across two relays (separate
#: from the fixed-mode four: its topology, not its mode, is the point).
MULTIHOP_EXCHANGE = "multihop"


class CanonicalChannel:
    """Signer → relays → verifier on one association, driven by hand.

    The one hand-driven channel of the code base: the canonical
    replays, the benchmark harness and the session-level test fixtures
    all build and walk it. It draws the signature chain and then the
    acknowledgment chain from ``rng``, crosses the anchors, and
    statically provisions ``relays`` relays on the path (one relay is
    the unplaced ``relay``; several are ``relay1``..``relayk`` at hops
    1..k). On the wire the signer is ``s`` and the verifier ``v``; in
    the trace they are ``signer`` and ``verifier``.

    Each wire leg takes ``hop_delay_s`` (0 by default), so a walk with
    a clock step reads like a packet capture of the path. Every walk
    requires each relay to forward each packet.
    """

    def __init__(
        self,
        rng: DRBG,
        config: ChannelConfig | None = None,
        *,
        relays: int = 1,
        relay_config: RelayConfig | None = None,
        obs: Observability | None = None,
        hash_name: str = "sha1",
        chain_length: int = 64,
        counters: Mapping[str, OpCounter] | None = None,
        accept_policy: Callable[[S1Packet], bool] | None = None,
        assoc_id: int = CANONICAL_ASSOC,
        hop_delay_s: float = 0.0,
    ) -> None:
        counters = counters or {}
        signer_hash, verifier_hash, relay_hash = (
            get_hash(hash_name, counters.get(role))
            for role in ("signer", "verifier", "relay")
        )
        h = signer_hash.digest_size
        sig_chain = HashChain(signer_hash, rng.random_bytes(h), chain_length)
        ack_chain = HashChain(
            verifier_hash, rng.random_bytes(h), chain_length, tags=ACKNOWLEDGMENT_TAGS
        )
        self.signer = SignerSession(
            signer_hash,
            sig_chain,
            ChainVerifier(signer_hash, ack_chain.anchor, tags=ACKNOWLEDGMENT_TAGS),
            config if config is not None else ChannelConfig(),
            assoc_id,
            peer="v",
            obs=obs,
            node="signer",
        )
        self.verifier = VerifierSession(
            verifier_hash,
            ack_chain,
            ChainVerifier(verifier_hash, sig_chain.anchor),
            assoc_id,
            rng.fork("verifier"),
            accept_policy=accept_policy,
            obs=obs,
            node="verifier",
        )
        if relays == 1:
            # Unplaced (hop=0), so single-relay traces keep their shape.
            placed = [("relay", 0)]
        else:
            placed = [(f"relay{i}", i) for i in range(1, relays + 1)]
        self.relays = [
            RelayEngine(relay_hash, relay_config, obs=obs, name=name, hop=hop)
            for name, hop in placed
        ]
        for relay in self.relays:
            relay.provision(
                assoc_id=assoc_id,
                initiator="s",
                responder="v",
                initiator_sig_anchor=sig_chain.anchor,
                initiator_ack_anchor=ack_chain.anchor,
                # One chain pair serves both directions: the reverse
                # channel carries no data here.
                responder_sig_anchor=sig_chain.anchor,
                responder_ack_anchor=ack_chain.anchor,
                hash_name=hash_name,
            )
        self.obs = obs
        self.hash_size = h
        self.hop_delay_s = hop_delay_s
        #: Every relay decision the walks took since :meth:`exchange` began.
        self.decisions: list[RelayDecision] = []

    @classmethod
    def around(
        cls, signer: SignerSession, verifier: VerifierSession, hash_size: int
    ) -> CanonicalChannel:
        """A relay-less channel that walks sessions built elsewhere."""
        channel = cls.__new__(cls)
        channel.signer, channel.verifier, channel.relays = signer, verifier, []
        channel.obs, channel.hash_size, channel.hop_delay_s = None, hash_size, 0.0
        channel.decisions = []
        return channel

    @property
    def relay(self) -> RelayEngine:
        """The first relay after the signer (replaceable, e.g. by a restart)."""
        return self.relays[0]

    @relay.setter
    def relay(self, engine: RelayEngine) -> None:
        self.relays[0] = engine

    def to_verifier(self, raw: bytes, now: float = 0.0) -> float:
        """Carry ``raw`` from the signer through every relay; returns the arrival."""
        return self._cross(raw, "s", "v", self.relays, now)

    def to_signer(self, raw: bytes, now: float = 0.0) -> float:
        """Carry ``raw`` from the verifier back through every relay."""
        return self._cross(raw, "v", "s", self.relays[::-1], now)

    def _cross(self, raw, src, dst, relays, now) -> float:
        for relay in relays:
            now += self.hop_delay_s
            decision = relay.handle(raw, src, dst, now)
            assert decision.forward, f"{relay.name} dropped: {decision.reason}"
            self.decisions.append(decision)
        return now + self.hop_delay_s

    def start(
        self, now: float = 0.0, s1: bytes | None = None, a1_via_relays: bool = True
    ) -> tuple[list[bytes], float]:
        """The S1/A1 interlock; returns the S2s in hand and the time.

        ``s1`` defaults to the one S1 the signer sends at ``now``. With
        ``a1_via_relays`` off the A1 reaches the signer around the
        relays, which then hold exactly one S1's worth of state.
        """
        if s1 is None:
            (s1,) = self.signer.poll(now)
        now = self.to_verifier(s1, now)
        a1 = self.verifier.handle_s1(decode_packet(s1, self.hash_size), now)
        assert a1 is not None, "the verifier refused the S1"
        if a1_via_relays:
            now = self.to_signer(a1, now)
        return self.signer.handle_a1(decode_packet(a1, self.hash_size), now), now

    def finish(
        self, s2s: list[bytes], now: float = 0.0
    ) -> tuple[list[DeliveredMessage], float]:
        """Walk each S2 to the verifier and any A2 back; returns deliveries and time."""
        for s2 in s2s:
            now = self.to_verifier(s2, now)
            a2 = self.verifier.handle_s2(decode_packet(s2, self.hash_size), now)
            if a2 is not None:
                now = self.to_signer(a2, now)
                self.signer.handle_a2(decode_packet(a2, self.hash_size), now)
        return self.verifier.drain_delivered(), now

    def exchange(
        self, messages: list[bytes], now: float = 0.0
    ) -> tuple[list[DeliveredMessage], list[RelayDecision]]:
        """Submit ``messages`` and walk their whole exchange.

        Returns the delivered messages and every relay decision the
        exchange took, in order.
        """
        for message in messages:
            self.signer.submit(message)
        self.decisions = []
        delivered, _ = self.finish(*self.start(now))
        return delivered, self.decisions


def run_canonical(
    name: str,
    obs: Observability | None = None,
    hop_delay_s: float = 0.005,
    seed: int | str = 0,
) -> Observability:
    """Replay one canonical exchange; returns the observability context.

    The clock advances by ``hop_delay_s`` for every wire leg, so the
    trace timeline reads like a packet capture of the two-hop path
    signer → relay → verifier.
    """
    if name == ADAPTIVE_EXCHANGE:
        return run_adaptive_canonical(obs, hop_delay_s=hop_delay_s, seed=seed)
    if name == MULTIHOP_EXCHANGE:
        return run_multihop_canonical(obs, hop_delay_s=hop_delay_s, seed=seed)
    try:
        mode, reliability, count = CANONICAL_EXCHANGES[name]
    except KeyError:
        raise ValueError(
            f"unknown canonical exchange {name!r}; pick one of "
            f"{sorted([*CANONICAL_EXCHANGES, ADAPTIVE_EXCHANGE, MULTIHOP_EXCHANGE])}"
        ) from None
    config = ChannelConfig(mode=mode, reliability=reliability, batch_size=count)
    channel = _channel(config, 1, obs, hop_delay_s, seed)
    return _replay(channel, [b"alpha-%d" % i for i in range(count)])


def run_multihop_canonical(
    obs: Observability | None = None,
    hop_delay_s: float = 0.005,
    seed: int | str = 0,
) -> Observability:
    """Reliable BASE exchange across two relays: the hop-spanning trace.

    The path is signer → relay1 (hop 1) → relay2 (hop 2) → verifier;
    acknowledgments walk it in reverse. Every wire leg advances the
    clock, and each relay stamps its hop ordinal into the trace
    context, so the rendered timeline reads as one multi-hop packet
    capture: four legs per direction, S1 → A1 → S2 → A2.
    """
    config = ChannelConfig(reliability=ReliabilityMode.RELIABLE, batch_size=1)
    return _replay(_channel(config, 2, obs, hop_delay_s, seed), [b"alpha-multihop"])


def _channel(
    config: ChannelConfig,
    relays: int,
    obs: Observability | None,
    hop_delay_s: float,
    seed: int | str,
) -> CanonicalChannel:
    """A replay's channel: seeded chains, one shared observability context."""
    return CanonicalChannel(
        DRBG(seed, personalization=b"canonical"),
        config,
        relays=relays,
        obs=obs if obs is not None else Observability(),
        hop_delay_s=hop_delay_s,
    )


def _replay(channel: CanonicalChannel, messages: list[bytes]) -> Observability:
    """One exchange of ``messages``, which must all arrive."""
    delivered, _ = channel.exchange(messages)
    assert [m.message for m in delivered] == messages
    assert channel.signer.idle
    return channel.obs


def run_adaptive_canonical(
    obs: Observability | None = None,
    hop_delay_s: float = 0.005,
    seed: int | str = 0,
) -> Observability:
    """Scripted controller arc: BASE → ALPHA-C → ALPHA-M → BASE.

    Four acts on one association: a quiet single-message exchange, a
    backlog that makes the controller batch, a bursty stretch where the
    S1 is genuinely lost twice (the resulting retransmissions feed the
    loss estimate) pushing the channel into Merkle mode, and the drain
    back to BASE. Deterministic, so the conformance suite asserts the
    decision sequence and ``python -m repro trace adaptive`` prints it.
    """
    channel = _channel(ChannelConfig(batch_size=1), 1, obs, hop_delay_s, seed)
    obs = channel.obs
    controller = AdaptiveController(
        channel.signer,
        AdaptiveConfig(
            decision_interval_s=0.001,
            warmup_intervals=0,
            ewma_alpha=1.0,  # the estimate is the last interval's ratio
            switch_cooldown_s=0.0,
            batch_max=8,
        ),
        obs=obs,
        node="signer",
    )
    delivered = []

    def run_legs(s1: bytes, t: float) -> float:
        """One exchange's remaining legs: relay, A1, all the S2s."""
        s2s, t = channel.start(t, s1)
        arrived, t = channel.finish(s2s, t)
        delivered.extend(arrived)
        return t + hop_delay_s

    messages = [b"adaptive-%d" % i for i in range(25)]
    # Act 1 — quiet link, one message: the controller leaves BASE alone.
    t = 0.0
    channel.signer.submit(messages[0])
    controller.poll(t)
    s1 = channel.signer.poll(t)[0]
    t = run_legs(s1, t)

    # Act 2 — a backlog builds: switch to ALPHA-C, batch to the queue.
    for message in messages[1:9]:
        channel.signer.submit(message)
    t += 0.01
    controller.poll(t)
    assert channel.signer.config.mode is Mode.CUMULATIVE
    s1 = channel.signer.poll(t)[0]
    t = run_legs(s1, t)

    # Act 3 — the link turns bursty: the next S1 is lost twice on the
    # wire and only the third copy arrives. Still ALPHA-C — the
    # controller cannot know before the retransmissions happen.
    for message in messages[9:17]:
        channel.signer.submit(message)
    channel.signer.poll(t)  # this S1 copy is lost
    t += 0.30
    channel.signer.poll(t)  # first retransmission: lost as well
    t += 0.70
    s1 = channel.signer.poll(t)[0]  # second retransmission gets through
    t = run_legs(s1, t)

    # Act 4 — the retransmit ratio is now visible: the next backlog goes
    # out in ALPHA-M, whose S1 is one root however large the batch.
    for message in messages[17:25]:
        channel.signer.submit(message)
    t += 0.01
    controller.poll(t)
    assert channel.signer.config.mode is Mode.MERKLE
    s1 = channel.signer.poll(t)[0]
    t = run_legs(s1, t)

    # Coda — burst over, queue drained: back to BASE.
    t += 0.01
    controller.poll(t)
    assert channel.signer.config.mode is Mode.BASE
    assert [m.message for m in delivered] == messages
    assert channel.signer.idle
    assert [d.kind for d in controller.decisions].count("switch") == 3
    return obs
