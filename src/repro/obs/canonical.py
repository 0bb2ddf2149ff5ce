"""Canonical exchange replays: paper Figures 2–4 as driveable scripts.

Each runner builds a fresh signer → relay → verifier channel sharing one
enabled :class:`~repro.obs.Observability`, then drives the packets leg
by leg with an advancing simulated clock (``hop_delay_s`` per hop). The
resulting trace is deterministic, so the conformance suite can assert
the *exact* event sequence, and ``python -m repro trace`` can print it
as a worked timeline.

The four canonical exchanges (ISSUE/tentpole vocabulary):

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

from repro.core.hashchain import ACKNOWLEDGMENT_TAGS, ChainVerifier, HashChain
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import decode_packet
from repro.core.relay import RelayEngine
from repro.core.signer import ChannelConfig, SignerSession
from repro.core.verifier import VerifierSession
from repro.crypto.drbg import DRBG
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
    """A signer/relay/verifier triple sharing one observability context."""

    def __init__(
        self,
        mode: Mode,
        reliability: ReliabilityMode,
        batch_size: int,
        obs: Observability,
        hash_name: str = "sha1",
        chain_length: int = 64,
        seed: int | str = 0,
        relay_count: int = 1,
    ) -> None:
        from repro.crypto.hashes import get_hash

        self.obs = obs
        rng = DRBG(seed, personalization=b"canonical")
        hash_fn = get_hash(hash_name)
        self.hash_size = hash_fn.digest_size
        sig_chain = HashChain(hash_fn, rng.random_bytes(self.hash_size), chain_length)
        ack_chain = HashChain(
            hash_fn,
            rng.random_bytes(self.hash_size),
            chain_length,
            tags=ACKNOWLEDGMENT_TAGS,
        )
        config = ChannelConfig(
            mode=mode, reliability=reliability, batch_size=batch_size
        )
        self.signer = SignerSession(
            hash_fn,
            sig_chain,
            ChainVerifier(hash_fn, ack_chain.anchor, tags=ACKNOWLEDGMENT_TAGS),
            config,
            CANONICAL_ASSOC,
            peer="verifier",
            obs=obs,
            node="signer",
        )
        self.verifier = VerifierSession(
            hash_fn,
            ack_chain,
            ChainVerifier(hash_fn, sig_chain.anchor),
            CANONICAL_ASSOC,
            rng.fork("verifier"),
            obs=obs,
            node="verifier",
        )
        if relay_count == 1:
            # Historical single-relay shape: unplaced (hop=0), so the
            # four fixed-mode replays keep their exact trace strings.
            self.relays = [RelayEngine(hash_fn, obs=obs, name="relay")]
        else:
            self.relays = [
                RelayEngine(hash_fn, obs=obs, name=f"relay{i}", hop=i)
                for i in range(1, relay_count + 1)
            ]
        self.relay = self.relays[0]
        for relay in self.relays:
            relay.provision(
                assoc_id=CANONICAL_ASSOC,
                initiator="signer",
                responder="verifier",
                initiator_sig_anchor=sig_chain.anchor,
                initiator_ack_anchor=ack_chain.anchor,
                responder_sig_anchor=sig_chain.anchor,
                responder_ack_anchor=ack_chain.anchor,
                hash_name=hash_name,
            )


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
    if obs is None:
        obs = Observability()
    channel = CanonicalChannel(mode, reliability, count, obs, seed=seed)
    messages = [b"alpha-%d" % i for i in range(count)]

    t = 0.0
    for message in messages:
        channel.signer.submit(message)
    s1 = channel.signer.poll(t)[0]
    t += hop_delay_s
    assert channel.relay.handle(s1, "signer", "verifier", t).forward
    t += hop_delay_s
    a1 = channel.verifier.handle_s1(decode_packet(s1, channel.hash_size), t)
    assert a1 is not None
    t += hop_delay_s
    assert channel.relay.handle(a1, "verifier", "signer", t).forward
    t += hop_delay_s
    s2s = channel.signer.handle_a1(decode_packet(a1, channel.hash_size), t)
    assert len(s2s) == count
    for s2 in s2s:
        t += hop_delay_s
        assert channel.relay.handle(s2, "signer", "verifier", t).forward
        t += hop_delay_s
        a2 = channel.verifier.handle_s2(decode_packet(s2, channel.hash_size), t)
        if a2 is not None:
            t += hop_delay_s
            assert channel.relay.handle(a2, "verifier", "signer", t).forward
            t += hop_delay_s
            channel.signer.handle_a2(decode_packet(a2, channel.hash_size), t)
    delivered = channel.verifier.drain_delivered()
    assert [m.message for m in delivered] == messages
    assert channel.signer.idle
    return obs


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
    if obs is None:
        obs = Observability()
    channel = CanonicalChannel(
        Mode.BASE, ReliabilityMode.RELIABLE, 1, obs, seed=seed, relay_count=2
    )
    h = channel.hash_size

    def forward(payload: bytes, src: str, dst: str, t: float) -> float:
        """Walk the packet through the relay chain in path order."""
        chain = channel.relays if src == "signer" else list(reversed(channel.relays))
        for relay in chain:
            assert relay.handle(payload, src, dst, t).forward
            t += hop_delay_s
        return t

    message = b"alpha-multihop"
    channel.signer.submit(message)
    t = 0.0
    s1 = channel.signer.poll(t)[0]
    t = forward(s1, "signer", "verifier", t + hop_delay_s)
    a1 = channel.verifier.handle_s1(decode_packet(s1, h), t)
    assert a1 is not None
    t = forward(a1, "verifier", "signer", t + hop_delay_s)
    (s2,) = channel.signer.handle_a1(decode_packet(a1, h), t)
    t = forward(s2, "signer", "verifier", t + hop_delay_s)
    a2 = channel.verifier.handle_s2(decode_packet(s2, h), t)
    assert a2 is not None
    t = forward(a2, "verifier", "signer", t + hop_delay_s)
    channel.signer.handle_a2(decode_packet(a2, h), t)
    delivered = channel.verifier.drain_delivered()
    assert [m.message for m in delivered] == [message]
    assert channel.signer.idle
    return obs


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
    from repro.core.adaptive import AdaptiveConfig, AdaptiveController

    if obs is None:
        obs = Observability()
    channel = CanonicalChannel(
        Mode.BASE, ReliabilityMode.UNRELIABLE, 1, obs, seed=seed
    )
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
    h = channel.hash_size
    delivered = []

    def run_legs(s1: bytes, t: float) -> float:
        """One exchange's remaining legs: relay, A1, all the S2s."""
        assert channel.relay.handle(s1, "signer", "verifier", t).forward
        t += hop_delay_s
        a1 = channel.verifier.handle_s1(decode_packet(s1, h), t)
        assert a1 is not None
        t += hop_delay_s
        assert channel.relay.handle(a1, "verifier", "signer", t).forward
        t += hop_delay_s
        for s2 in channel.signer.handle_a1(decode_packet(a1, h), t):
            t += hop_delay_s
            assert channel.relay.handle(s2, "signer", "verifier", t).forward
            t += hop_delay_s
            channel.verifier.handle_s2(decode_packet(s2, h), t)
        delivered.extend(channel.verifier.drain_delivered())
        return t + hop_delay_s

    messages = [b"adaptive-%d" % i for i in range(25)]
    # Act 1 — quiet link, one message: the controller leaves BASE alone.
    t = 0.0
    channel.signer.submit(messages[0])
    controller.poll(t)
    s1 = channel.signer.poll(t)[0]
    t = run_legs(s1, t + hop_delay_s)

    # Act 2 — a backlog builds: switch to ALPHA-C, batch to the queue.
    for message in messages[1:9]:
        channel.signer.submit(message)
    t += 0.01
    controller.poll(t)
    assert channel.signer.config.mode is Mode.CUMULATIVE
    s1 = channel.signer.poll(t)[0]
    t = run_legs(s1, t + hop_delay_s)

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
    t = run_legs(s1, t + hop_delay_s)

    # Act 4 — the retransmit ratio is now visible: the next backlog goes
    # out in ALPHA-M, whose S1 is one root however large the batch.
    for message in messages[17:25]:
        channel.signer.submit(message)
    t += 0.01
    controller.poll(t)
    assert channel.signer.config.mode is Mode.MERKLE
    s1 = channel.signer.poll(t)[0]
    t = run_legs(s1, t + hop_delay_s)

    # Coda — burst over, queue drained: back to BASE.
    t += 0.01
    controller.poll(t)
    assert channel.signer.config.mode is Mode.BASE
    assert [m.message for m in delivered] == messages
    assert channel.signer.idle
    assert [d.kind for d in controller.decisions].count("switch") == 3
    return obs
