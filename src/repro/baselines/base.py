"""Shared vocabulary for baseline schemes, plus the netsim adapters.

:class:`SchemeProperties` captures the qualitative feature matrix the
paper's related-work section walks through (Section 2): whether relays
can verify, whether insiders are contained, whether time synchronisation
is needed, and when a receiver can verify. The attack benchmarks assert
this matrix empirically.

The rest of the module wires every baseline onto the simulator: a
:class:`BaselineAdapter` per scheme (its feature-matrix row, sender,
optional per-hop relay judgement, receiver) and a :class:`BaselineChain`
harness that runs an adapter over the paper's Figure-1 chain topology,
so the schemes × attacks grid in ``benchmarks/bench_attack_filtering.py``
and the ``tests/security/`` separation tier drive ALPHA and all
baselines through the *same* frame-level attacks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.chained_mode import (
    DEFAULT_GENERATION_SIZE,
    ChainedModeRelay,
    ChainedModeSigner,
    ChainedModeVerifier,
    mac_region,
)
from repro.baselines.guy_fawkes import GuyFawkesSigner, GuyFawkesVerifier
from repro.baselines.hmac_e2e import HmacEndToEnd
from repro.baselines.lhap import LhapNode
from repro.baselines.pk_sign import PkSigner, PkVerifier
from repro.baselines.promac import (
    DEFAULT_FRAGMENT_BYTES,
    DEFAULT_WINDOW,
    ProMacSigner,
    ProMacVerifier,
    aggregate_tag_regions,
)
from repro.baselines.tesla import TeslaSchedule, TeslaSigner, TeslaVerifier
from repro.core.wire import Writer
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import OpCounter, get_hash
from repro.crypto.signatures import EcdsaScheme
from repro.netsim.network import Network
from repro.netsim.packet import Frame


@dataclass(frozen=True)
class SchemeProperties:
    """Feature matrix entry for one scheme."""

    name: str
    #: Can forwarding nodes verify packets (hop-by-hop authentication)?
    relay_verifiable: bool
    #: Does the scheme protect against otherwise-trusted insider relays
    #: tampering with traffic (end-to-end integrity)?
    insider_protection: bool
    #: Does it require (loosely) synchronised clocks?
    needs_time_sync: bool
    #: Upper bound on when a receiver can verify a packet:
    #: "immediate", "one-packet-lag", "disclosure-interval", "rtt",
    #: "window" (progressive: full strength only after the window).
    verification_delay: str
    #: Per-message public-key operations on the *sender*.
    sender_pk_ops: float = 0.0
    #: How much in-transit reordering verification survives:
    #: "any" (order-free), "generation" (within a coded generation),
    #: "window" (within the progressive window), "exchange" (within an
    #: exchange, recovered by retransmission), "none" (strict order —
    #: a single swap desynchronises).
    reorder_tolerance: str = "any"
    #: Packets during which an already-*accepted* payload can still be
    #: retracted (ProMAC's accept-then-retract gap). 0 = acceptance is
    #: final.
    provisional_window: int = 0


def feature_matrix() -> list[SchemeProperties]:
    """The qualitative comparison table (paper Section 2 distilled):
    ALPHA's row, then the row each baseline adapter declares."""
    alpha = SchemeProperties(
        name="ALPHA",
        relay_verifiable=True,
        insider_protection=True,
        needs_time_sync=False,
        verification_delay="rtt",
        reorder_tolerance="exchange",
    )
    return [alpha, *(adapter.row for adapter in scheme_adapters().values())]


# ---------------------------------------------------------------------------
# Netsim adapters: one sender/relay/receiver bundle per baseline scheme.
# ---------------------------------------------------------------------------

#: Marker message used by :meth:`BaselineAdapter.flush_packets` padding
#: (window/generation completion, idle key disclosures). Filtered out of
#: every accepted/authenticated accessor so attack metrics only ever see
#: the experiment's own messages.
FLUSH_MARKER = b"\x00repro-flush"

Spans = list[tuple[int, int]]


def _var_span(payload: bytes, offset: int) -> Spans:
    """Span of a non-empty ``var_bytes`` field whose u16 length sits at
    ``offset``; ``[]`` when the payload is too short to hold it."""
    if len(payload) < offset + 2:
        return []
    length = int.from_bytes(payload[offset : offset + 2], "big")
    start = offset + 2
    end = start + length
    if end > len(payload) or length == 0:
        return []
    return [(start, end)]


def _span_after(payload: bytes, spans: Spans, skip: int, length: int) -> Spans:
    """The ``length`` bytes that start ``skip`` bytes after ``spans``."""
    if not spans:
        return []
    start = spans[0][1] + skip
    end = start + length
    return [(start, end)] if end <= len(payload) else []


def _flip_last_byte(payload: bytes, spans: Spans) -> bytes:
    """The canonical insider mutation: invert the last message byte."""
    if not spans:
        return payload
    out = bytearray(payload)
    out[spans[0][1] - 1] ^= 0xFF
    return bytes(out)


def _flip_message(message: bytes) -> bytes:
    return _flip_last_byte(message, [(0, len(message))])


class BaselineAdapter:
    """One baseline scheme wired for the chain topology.

    The adapter owns every protocol role on the path: the sender
    (``protect``), an optional per-hop relay judgement (``relay_judge``),
    and the receiving endpoint (``receive``). :class:`BaselineChain`
    calls these from netsim hooks; the attack grid additionally uses the
    *attack surface* methods (``message_region`` / ``tag_regions`` /
    ``forge``) so one attacker implementation can target every scheme.

    A subclass is the one definition of its scheme: it declares its
    feature-matrix :attr:`row`, where its length-prefixed message sits
    (:attr:`message_offset`) and its drain settings, builds a
    ``_signer`` and a ``_receiver`` engine, and overrides only the hooks
    where the scheme really differs. The defaults below assume a signer
    with ``protect(message)`` and a receiver with ``handle_packet``,
    ``verified`` and ``rejected``.

    Sender-side cryptographic work is tallied on :attr:`counter`
    (relays and the receiver hash on an uncounted front-end), so the
    grid's per-message cost column measures the sender exactly like the
    paper's Table 1 does for ALPHA.
    """

    #: This scheme's :func:`feature_matrix` row.
    row: SchemeProperties
    #: Byte offset of the u16 length prefix of the message field.
    message_offset = 4
    #: End-of-run flush packets needed (see :meth:`flush_packets`).
    drain_rounds = 0
    drain_spacing = 0.05

    def __init__(self, seed: int | str = 0, hops: int = 5) -> None:
        if hops < 2:
            raise ValueError("the chain topology needs at least two hops")
        self.hops = hops
        self.counter = OpCounter()
        self.hash = get_hash("sha1", self.counter)
        #: Uncounted twin for relay/receiver roles, so :attr:`counter`
        #: stays a pure sender-cost measurement.
        self.verify_hash = get_hash("sha1")
        self.rng = DRBG(seed, personalization=b"baseline:" + self.row.name.encode())

    # -- protocol roles ------------------------------------------------------

    def protect(self, message: bytes, now: float) -> bytes:
        return self._signer.protect(message)

    def relay_judge(
        self, payload: bytes, hop: int, now: float
    ) -> tuple[bool, list[bytes] | None, str]:
        """Judge a payload at relay ``hop`` (1-based).

        Returns ``(forward, rewritten, reason)``. ``rewritten`` is
        ``None`` to forward the payload untouched, else the packets to
        send downstream instead (hop-by-hop schemes re-key per link, and
        a flushed buffer can turn one packet into several). The default
        models a keyless relay: forward everything, judge nothing.
        """
        return True, None, "opaque-forward"

    def insider_judge(
        self, payload: bytes, hop: int, now: float
    ) -> tuple[bool, list[bytes] | None, str]:
        """What a *compromised* relay at ``hop`` does to the payload.

        The default insider holds no useful key material (end-to-end
        schemes), so the best it can do is flip message bits and hope —
        indistinguishable from on-path tampering. Schemes whose relays
        hold authentication-relevant keys (LHAP tokens, CSM link keys)
        override this with a proper re-authenticating rewrite.
        """
        return True, [_flip_last_byte(payload, self.message_region(payload))], (
            "insider-tampered"
        )

    def receive(self, payload: bytes, now: float) -> None:
        """Hand one payload to the receiver. A payload the receiver
        cannot parse may raise; :class:`BaselineChain` counts that as
        one ``receiver_errors``."""
        self._receiver.handle_packet(payload)

    def flush_packets(self, now: float) -> list[bytes]:
        """Trailing packets that settle receiver state (key disclosures,
        window/generation padding). Called :attr:`drain_rounds` times;
        by default one marker message."""
        return [self._signer.protect(FLUSH_MARKER)]

    # -- attack surface ------------------------------------------------------

    def message_region(self, payload: bytes) -> Spans:
        return _var_span(payload, self.message_offset)

    def tag_regions(self, payload: bytes) -> Spans:
        """By default the trailing digest-sized tag."""
        return mac_region(payload, self.hash.digest_size)

    def forge(self, rng: DRBG, now: float) -> bytes:
        """A from-thin-air packet with valid framing but no key material."""
        raise NotImplementedError

    # -- outcomes ------------------------------------------------------------

    def accepted_messages(self) -> list[bytes]:
        """Messages the application consumed (possibly provisionally)."""
        return self._strip_markers([v.message for v in self._receiver.verified])

    def authenticated_messages(self) -> list[bytes]:
        """Messages whose authentication reached the scheme's full
        strength. For immediate-verification schemes this equals
        :meth:`accepted_messages`."""
        return self.accepted_messages()

    def receiver_rejects(self) -> int:
        return self._receiver.rejected

    def retractions(self) -> int:
        """Messages consumed and later proven wrong (ProMAC's gap)."""
        return 0

    @staticmethod
    def _strip_markers(messages: list[bytes]) -> list[bytes]:
        return [m for m in messages if m != FLUSH_MARKER]


class HmacAdapter(BaselineAdapter):
    """End-to-end shared-secret HMAC (keyless relays)."""

    row = SchemeProperties(
        name="HMAC-E2E",
        relay_verifiable=False,
        insider_protection=True,
        needs_time_sync=False,
        verification_delay="immediate",
    )

    def __init__(self, seed: int | str = 0, hops: int = 5) -> None:
        super().__init__(seed, hops)
        key = self.rng.random_bytes(self.hash.digest_size)
        self._signer = HmacEndToEnd(self.hash, key)
        self._receiver = HmacEndToEnd(self.verify_hash, key)

    def receive(self, payload: bytes, now: float) -> None:
        self._receiver.verify(payload)

    def forge(self, rng: DRBG, now: float) -> bytes:
        body = Writer().u32(0xF0F0).var_bytes(b"forged-hmac").getvalue()
        return body + rng.random_bytes(self.hash.digest_size)


class PkSignAdapter(BaselineAdapter):
    """Per-packet public-key signatures; every relay verifies."""

    row = SchemeProperties(
        name="PK-SIGN",
        relay_verifiable=True,
        insider_protection=True,
        needs_time_sync=False,
        verification_delay="immediate",
        sender_pk_ops=1.0,
    )

    def __init__(self, seed: int | str = 0, hops: int = 5) -> None:
        super().__init__(seed, hops)
        identity = EcdsaScheme.generate(
            self.rng.fork("pk-identity"), counter=self.counter
        )
        self._signer = PkSigner(identity)
        blob = self._signer.public_blob()
        self._relay_views = [PkVerifier(blob) for _ in range(hops - 1)]
        self._receiver = PkVerifier(blob)

    def relay_judge(
        self, payload: bytes, hop: int, now: float
    ) -> tuple[bool, list[bytes] | None, str]:
        if self._relay_views[hop - 1].verify(payload) is None:
            return False, None, "bad-signature"
        return True, None, "verified"

    def receive(self, payload: bytes, now: float) -> None:
        self._receiver.verify(payload)

    def tag_regions(self, payload: bytes) -> Spans:
        spans = self.message_region(payload)
        return _var_span(payload, spans[0][1]) if spans else []

    def forge(self, rng: DRBG, now: float) -> bytes:
        out = Writer()
        out.u32(0xF0F0)
        out.var_bytes(b"forged-pk")
        out.var_bytes(rng.random_bytes(64))
        return out.getvalue()


class TeslaAdapter(BaselineAdapter):
    """TESLA delayed key disclosure on simulator time."""

    row = SchemeProperties(
        name="TESLA",
        relay_verifiable=False,
        insider_protection=True,
        needs_time_sync=True,
        verification_delay="disclosure-interval",
    )
    drain_rounds = 6
    drain_spacing = 0.25

    def __init__(self, seed: int | str = 0, hops: int = 5) -> None:
        super().__init__(seed, hops)
        self.schedule = TeslaSchedule(
            start_time=0.0, interval_s=0.25, disclosure_lag=2, chain_length=64
        )
        self._signer = TeslaSigner(
            self.hash, self.rng.random_bytes(self.hash.digest_size), self.schedule
        )
        self._receiver = TeslaVerifier(
            self.verify_hash, self._signer.anchor, self.schedule
        )

    def protect(self, message: bytes, now: float) -> bytes:
        return self._signer.protect(message, now)

    def receive(self, payload: bytes, now: float) -> None:
        if len(payload) == 4 + self.hash.digest_size:
            self._receiver.handle_disclosure_packet(payload)
        else:
            self._receiver.handle_packet(payload, now)

    def flush_packets(self, now: float) -> list[bytes]:
        disclosure = self._signer.idle_disclosure(now)
        return [disclosure] if disclosure is not None else []

    def receiver_rejects(self) -> int:
        return self._receiver.rejected + self._receiver.dropped_unsafe

    def tag_regions(self, payload: bytes) -> Spans:
        return _span_after(
            payload, self.message_region(payload), 0, self.hash.digest_size
        )

    def forge(self, rng: DRBG, now: float) -> bytes:
        interval = self.schedule.interval_of(now)
        out = Writer()
        out.u32(interval)
        out.var_bytes(b"forged-tesla")
        out.raw(rng.random_bytes(self.hash.digest_size))
        return out.getvalue()


class GuyFawkesAdapter(BaselineAdapter):
    """Guy Fawkes interactive stream signatures (strict order).

    One trailing marker packet discloses the previous key, releasing
    the last real message from the one-packet verification lag.
    """

    row = SchemeProperties(
        name="GUY-FAWKES",
        relay_verifiable=False,
        insider_protection=True,
        needs_time_sync=False,
        verification_delay="one-packet-lag",
        reorder_tolerance="none",
    )
    drain_rounds = 1

    def __init__(self, seed: int | str = 0, hops: int = 5) -> None:
        super().__init__(seed, hops)
        self._signer = GuyFawkesSigner(self.hash, self.rng.fork("gf-keys"))
        self._receiver = GuyFawkesVerifier(
            self.verify_hash, self._signer.bootstrap_commitment()
        )

    def tag_regions(self, payload: bytes) -> Spans:
        # Skip the next-key commitment; target the MAC.
        h = self.hash.digest_size
        return _span_after(payload, self.message_region(payload), h, h)

    def forge(self, rng: DRBG, now: float) -> bytes:
        h = self.hash.digest_size
        out = Writer()
        out.u32(0xF0F0)
        out.var_bytes(b"forged-fawkes")
        out.raw(rng.random_bytes(h))
        out.raw(rng.random_bytes(h))
        out.var_bytes(rng.random_bytes(h))
        return out.getvalue()


class LhapAdapter(BaselineAdapter):
    """LHAP per-hop token chains; relays re-token what they forward."""

    row = SchemeProperties(
        name="LHAP",
        relay_verifiable=True,
        insider_protection=False,
        needs_time_sync=True,
        verification_delay="immediate",
        # Token chains tolerate forward gaps (a lost token is skipped)
        # but a token arriving *after* a later one is unverifiable.
        reorder_tolerance="window",
    )
    message_offset = 0

    def __init__(self, seed: int | str = 0, hops: int = 5) -> None:
        super().__init__(seed, hops)
        names = ["s"] + [f"r{i}" for i in range(1, hops)] + ["v"]
        self._names = names
        self._nodes: dict[str, LhapNode] = {}
        for name in names:
            hash_fn = self.hash if name == "s" else self.verify_hash
            self._nodes[name] = LhapNode(
                name, hash_fn, self.rng.fork(f"lhap:{name}")
            )
        for upstream, downstream in zip(names, names[1:]):
            self._nodes[downstream].learn_neighbour(
                upstream, self._nodes[upstream].chain.anchor
            )
        self._receiver = self._nodes["v"]
        self._accepted: list[bytes] = []

    def _encode(self, message: bytes, token: bytes) -> bytes:
        return Writer().var_bytes(message).raw(token).getvalue()

    def _decode(self, payload: bytes) -> tuple[bytes, bytes]:
        spans = self.message_region(payload)
        if not spans or len(payload) != spans[0][1] + self.hash.digest_size:
            raise ValueError("malformed LHAP packet")
        start, end = spans[0]
        return payload[start:end], payload[end:]

    def protect(self, message: bytes, now: float) -> bytes:
        return self._encode(*self._nodes["s"].attach_token(message))

    def relay_judge(
        self, payload: bytes, hop: int, now: float
    ) -> tuple[bool, list[bytes] | None, str]:
        try:
            message, token = self._decode(payload)
        except ValueError:
            return False, None, "malformed"
        me = self._nodes[self._names[hop]]
        if not me.verify_from(self._names[hop - 1], message, token):
            return False, None, "bad-token"
        # The token authenticated the upstream *sender*; the payload is
        # forwarded under this relay's own next token (unbound!).
        return True, [self._encode(*me.attach_token(message))], "re-tokened"

    def insider_judge(
        self, payload: bytes, hop: int, now: float
    ) -> tuple[bool, list[bytes] | None, str]:
        try:
            message, _token = self._decode(payload)
        except ValueError:
            return False, None, "malformed"
        me = self._nodes[self._names[hop]]
        # The insider's own chain is all downstream checks: the rewrite
        # travels fully authenticated (the paper's Section 2.2 gap).
        return True, [self._encode(*me.attach_token(_flip_message(message)))], (
            "insider-retokened"
        )

    def receive(self, payload: bytes, now: float) -> None:
        message, token = self._decode(payload)
        if self._receiver.verify_from(self._names[-2], message, token):
            self._accepted.append(message)

    def accepted_messages(self) -> list[bytes]:
        return self._strip_markers(self._accepted)

    def forge(self, rng: DRBG, now: float) -> bytes:
        return self._encode(
            b"forged-lhap", rng.random_bytes(self.hash.digest_size)
        )


class ProMacAdapter(BaselineAdapter):
    """ProMAC progressive fragments with provisional acceptance.

    Marker packets carry the back-fragments that bring the last real
    messages of the stream to full MAC strength.
    """

    row = SchemeProperties(
        # Progressive MACs (arXiv 2103.08560): truncated fragments
        # aggregate to full strength over a window; acceptance is
        # provisional until then (the Reality-Sandwich gap).
        name="PROMAC",
        relay_verifiable=False,
        insider_protection=True,
        needs_time_sync=False,
        verification_delay="window",
        reorder_tolerance="window",
        provisional_window=DEFAULT_WINDOW - 1,
    )
    drain_rounds = DEFAULT_WINDOW - 1

    def __init__(self, seed: int | str = 0, hops: int = 5) -> None:
        super().__init__(seed, hops)
        key = self.rng.random_bytes(self.hash.digest_size)
        self._signer = ProMacSigner(self.hash, key)
        self._receiver = ProMacVerifier(self.verify_hash, key)

    def accepted_messages(self) -> list[bytes]:
        return self._strip_markers([m for _, m in self._receiver.accepted])

    def authenticated_messages(self) -> list[bytes]:
        return self._strip_markers([m for _, m in self._receiver.finalized])

    def retractions(self) -> int:
        return self._receiver.accepted_then_retracted

    def tag_regions(self, payload: bytes) -> Spans:
        return aggregate_tag_regions(payload)

    def forge(self, rng: DRBG, now: float) -> bytes:
        out = Writer()
        out.u32(50_000)
        out.var_bytes(b"forged-promac")
        out.raw(rng.random_bytes(DEFAULT_FRAGMENT_BYTES))
        out.u8(0)
        return out.getvalue()


class ChainedModeAdapter(BaselineAdapter):
    """CSM chained per-hop MACs over coded generations."""

    row = SchemeProperties(
        # Chained secure mode with network coding (arXiv
        # 2006.00310): per-hop chained MACs over coded generations.
        # Hop-verifiable and order-free inside a generation, but a
        # compromised relay holds the downstream link key.
        name="CSM",
        relay_verifiable=True,
        insider_protection=False,
        needs_time_sync=False,
        verification_delay="immediate",
        reorder_tolerance="generation",
    )
    message_offset = 6  # u32 generation | u16 index | var_bytes
    drain_rounds = DEFAULT_GENERATION_SIZE - 1

    def __init__(self, seed: int | str = 0, hops: int = 5) -> None:
        super().__init__(seed, hops)
        key_rng = self.rng.fork("csm-keys")
        keys = [
            key_rng.random_bytes(self.hash.digest_size) for _ in range(hops)
        ]
        self._signer = ChainedModeSigner(self.hash, keys[0])
        self.relays = [
            ChainedModeRelay(self.verify_hash, keys[i], keys[i + 1])
            for i in range(hops - 1)
        ]
        self._receiver = ChainedModeVerifier(self.verify_hash, keys[-1])

    def relay_judge(
        self, payload: bytes, hop: int, now: float
    ) -> tuple[bool, list[bytes] | None, str]:
        return self.relays[hop - 1].handle(payload)

    def insider_judge(
        self, payload: bytes, hop: int, now: float
    ) -> tuple[bool, list[bytes] | None, str]:
        return self.relays[hop - 1].handle_as_insider(payload, _flip_message)

    def flush_packets(self, now: float) -> list[bytes]:
        # Pad only a generation the stream left open.
        if self._signer.pending_in_generation == 0:
            return []
        return super().flush_packets(now)

    def forge(self, rng: DRBG, now: float) -> bytes:
        out = Writer()
        # A generation far in the future trips the gap bound no matter
        # how much genuine traffic already flowed: deterministic reason.
        out.u32(1_000_000)
        out.u16(0)
        out.var_bytes(b"forged-csm")
        out.raw(rng.random_bytes(self.hash.digest_size))
        return out.getvalue()


def scheme_adapters() -> dict[str, type[BaselineAdapter]]:
    """Baseline name -> adapter class: the one registry of baselines."""
    return {
        adapter.row.name: adapter
        for adapter in (
            HmacAdapter,
            PkSignAdapter,
            TeslaAdapter,
            GuyFawkesAdapter,
            LhapAdapter,
            ProMacAdapter,
            ChainedModeAdapter,
        )
    }


# ---------------------------------------------------------------------------
# The chain harness: one adapter on the paper's Figure-1 topology.
# ---------------------------------------------------------------------------


class BaselineChain:
    """Run a :class:`BaselineAdapter` over a netsim chain.

    Builds the ``s — r1 … r{hops-1} — v`` path, installs the adapter's
    relay judgement as each relay's ``forward_filter`` (attacks wrap
    these filters exactly as they wrap ALPHA's
    :class:`~repro.core.relay.RelayAdapter`), and delivers frames
    reaching ``v`` to the adapter's receiver. Per-relay drops are
    tallied by reason so the grid can report *where* an attack died;
    buffered-future holds (CSM) are not drops.
    """

    KIND = "baseline"

    def __init__(
        self,
        adapter: BaselineAdapter,
        seed: int | str = 0,
        insider_at: int | None = None,
    ) -> None:
        self.adapter = adapter
        self.insider_at = insider_at
        hops = adapter.hops
        self.net = Network.chain(hops, seed=seed)
        self.sender = self.net.nodes["s"]
        self.receiver = self.net.nodes["v"]
        self.relays = [self.net.nodes[f"r{i}"] for i in range(1, hops)]
        #: Per-relay drop tallies: ``drops[hop - 1][reason] = count``.
        self.drops: list[dict[str, int]] = [{} for _ in self.relays]
        self.sent_payloads: list[bytes] = []
        self.wire_bytes = 0
        self.receiver_errors = 0
        for ordinal, relay in enumerate(self.relays, start=1):
            relay.forward_filter = self._make_judge(ordinal, relay)
        self.receiver.app_handler = self._app

    # -- netsim hooks --------------------------------------------------------

    def _make_judge(self, hop: int, relay):
        def judge(frame: Frame) -> bool:
            if frame.kind != self.KIND:
                return True
            now = self.net.simulator.now
            if self.insider_at == hop:
                forward, outs, reason = self.adapter.insider_judge(
                    frame.payload, hop, now
                )
            else:
                forward, outs, reason = self.adapter.relay_judge(
                    frame.payload, hop, now
                )
            if not forward:
                if reason != "buffered-future":
                    bucket = self.drops[hop - 1]
                    bucket[reason] = bucket.get(reason, 0) + 1
                return False
            if outs is None:
                return True
            if len(outs) == 1:
                frame.payload = outs[0]
                return True
            # A flush produced several packets: send each separately
            # and consume the original frame.
            for payload in outs:
                clone = frame.copy()
                clone.payload = payload
                clone.ttl -= 1
                link = relay.routes.get(clone.destination)
                if link is not None and clone.ttl > 0:
                    link.transmit(clone, relay)
            return False

        return judge

    def _app(self, frame: Frame) -> None:
        if frame.kind != self.KIND:
            return
        try:
            self.adapter.receive(frame.payload, self.net.simulator.now)
        except Exception:
            self.receiver_errors += 1

    # -- traffic -------------------------------------------------------------

    def send_at(self, at: float, message: bytes) -> None:
        """Schedule a genuine message from ``s``."""
        self.net.simulator.schedule_at(at, self._send_now, message)

    def send_stream(
        self, messages: list[bytes], start: float = 0.05, spacing: float = 0.05
    ) -> float:
        """Schedule a message train; returns the last send time."""
        at = start
        for message in messages:
            self.send_at(at, message)
            at += spacing
        return at - spacing

    def _send_now(self, message: bytes) -> None:
        payload = self.adapter.protect(message, self.net.simulator.now)
        self.sent_payloads.append(payload)
        self.wire_bytes += len(payload)
        self._originate(payload)

    def inject_at(self, at: float, builder) -> None:
        """Schedule attacker traffic on the first link.

        ``builder(now) -> payload | None`` runs at fire time, so it can
        capture state (replayed payloads) or read the clock (TESLA).
        """
        self.net.simulator.schedule_at(at, self._inject_now, builder)

    def _inject_now(self, builder) -> None:
        payload = builder(self.net.simulator.now)
        if payload is not None:
            self._originate(payload)

    def _originate(self, payload: bytes) -> None:
        self.sender.send(
            Frame(source="s", destination="v", payload=payload, kind=self.KIND)
        )

    def drain_from(self, at: float) -> float:
        """Schedule the adapter's end-of-run flush packets."""
        spacing = self.adapter.drain_spacing
        for round_no in range(self.adapter.drain_rounds):
            self.net.simulator.schedule_at(at + round_no * spacing, self._drain_now)
        return at + self.adapter.drain_rounds * spacing

    def _drain_now(self) -> None:
        for payload in self.adapter.flush_packets(self.net.simulator.now):
            self.wire_bytes += len(payload)
            self._originate(payload)

    def run(self, until: float | None = None) -> None:
        self.net.simulator.run(until=until)

    # -- outcomes ------------------------------------------------------------

    @property
    def relay_drop_total(self) -> int:
        return sum(sum(bucket.values()) for bucket in self.drops)

    @property
    def first_drop_hop(self) -> int | None:
        """1-based ordinal of the first relay that dropped anything."""
        for hop, bucket in enumerate(self.drops, start=1):
            if sum(bucket.values()):
                return hop
        return None

    def drop_reasons(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for bucket in self.drops:
            for reason, count in bucket.items():
                merged[reason] = merged.get(reason, 0) + count
        return merged
