"""HIP-like signaling over ALPHA (paper Section 4.1.1).

The paper integrated ALPHA into the Host Identity Protocol as a
"lightweight security layer for signaling traffic" so that end hosts can
securely signal association-relevant information — new locators (IP
addresses), rate limits, teardown — to both their peers *and* on-path
middleboxes. This module reproduces that pattern:

- :class:`SignalingMessage` — a tiny typed key/value message codec.
- :class:`HipHost` — an endpoint adapter speaking signaling messages.
- :class:`Middlebox` — a relay that consumes messages it verified in
  transit and updates local state (locator bindings, rate limits),
  without holding any shared secret: the "secure middlebox signaling"
  promise of the abstract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.relay import RelayConfig, RelayEngine
from repro.core.wire import Reader, Writer
from repro.netsim.node import Node
from repro.transports.netsim import EndpointAdapter, RelayAdapter

#: Known signaling verbs (free-form strings are allowed; these are the
#: ones the paper's scenarios motivate).
UPDATE_LOCATOR = "update-locator"
RATE_LIMIT = "rate-limit"
CLOSE = "close"
KEEPALIVE = "keepalive"


@dataclass(frozen=True)
class SignalingMessage:
    """One signaling verb plus string parameters."""

    kind: str
    params: dict[str, str] = field(default_factory=dict)

    def encode(self) -> bytes:
        writer = Writer()
        writer.var_bytes(self.kind.encode("utf-8"))
        writer.u16(len(self.params))
        for key in sorted(self.params):
            writer.var_bytes(key.encode("utf-8"))
            writer.var_bytes(self.params[key].encode("utf-8"))
        return writer.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "SignalingMessage":
        reader = Reader(data)
        kind = reader.var_bytes().decode("utf-8")
        count = reader.u16()
        params = {}
        for _ in range(count):
            key = reader.var_bytes().decode("utf-8")
            params[key] = reader.var_bytes().decode("utf-8")
        reader.expect_end()
        return cls(kind=kind, params=params)


class HipHost:
    """An end host exchanging ALPHA-protected signaling messages."""

    def __init__(
        self,
        node: Node,
        config: EndpointConfig | None = None,
        seed: int | str | None = None,
        identity=None,
    ) -> None:
        if config is None:
            config = EndpointConfig()
        self.endpoint = AlphaEndpoint(
            node.name, config, seed=seed, identity=identity
        )
        self.adapter = EndpointAdapter(self.endpoint, node)
        self.inbox: list[tuple[str, SignalingMessage]] = []

    def associate(self, peer: str) -> None:
        self.adapter.connect(peer)

    def established(self, peer: str) -> bool:
        return self.adapter.established(peer)

    def signal(self, peer: str, message: SignalingMessage) -> None:
        self.adapter.send(peer, message.encode())

    def update_locator(self, peer: str, new_locator: str) -> None:
        """The flagship HIP use case: a mobility locator update."""
        self.signal(
            peer, SignalingMessage(UPDATE_LOCATOR, {"locator": new_locator})
        )

    def drain_inbox(self) -> list[tuple[str, SignalingMessage]]:
        self._pump()
        inbox, self.inbox = self.inbox, []
        return inbox

    def _pump(self) -> None:
        for peer, raw in self.adapter.received:
            try:
                self.inbox.append((peer, SignalingMessage.decode(raw)))
            except Exception:
                continue
        self.adapter.received = []


class Middlebox:
    """A forwarding node that acts on relay-verified signaling.

    It runs a normal :class:`RelayEngine` (so forged traffic is dropped)
    and interprets every *verified* extracted message: locator updates
    populate :attr:`locator_bindings`, rate limits populate
    :attr:`rate_limits`. It never holds a shared secret — everything it
    trusts came from hash-chain verification in transit.
    """

    def __init__(
        self,
        node: Node,
        hash_fn=None,
        relay_config: RelayConfig | None = None,
        enforce_rate_limits: bool = False,
    ) -> None:
        if hash_fn is None:
            from repro.crypto.hashes import get_hash

            hash_fn = get_hash("sha1")
        self.engine = RelayEngine(hash_fn, relay_config, extract=True)
        self.adapter = RelayAdapter(node, engine=self.engine)
        self.node = node
        self.locator_bindings: dict[str, str] = {}
        self.rate_limits: dict[str, float] = {}
        self.closed_associations: set[int] = set()
        self.signaling_seen = 0
        #: Rate enforcement — the paper's "rate and resource allocation
        #: within the network controlled by end-hosts but enforced by
        #: intermediate nodes" (Section 1). A signer may *lower its own*
        #: forwarding budget via a signed RATE_LIMIT message; the
        #: middlebox then polices the signer's traffic with a token
        #: bucket. Because only the signer's own hash chain can produce
        #: the signal, nobody can throttle anyone else.
        self.enforce_rate_limits = enforce_rate_limits
        self._buckets: dict[str, tuple[float, float]] = {}  # name -> (tokens, t)
        self.rate_dropped = 0
        if enforce_rate_limits:
            inner = node.forward_filter

            def enforcing_filter(frame) -> bool:
                if inner is not None and not inner(frame):
                    return False
                self.process()
                return self._admit(frame)

            node.forward_filter = enforcing_filter

    def _admit(self, frame) -> bool:
        limit = self.rate_limits.get(frame.source)
        if limit is None:
            return True
        now = self.node.simulator.now
        tokens, last = self._buckets.get(frame.source, (limit, now))
        tokens = min(limit, tokens + (now - last) * limit)
        cost = frame.size * 8
        if tokens < cost:
            self._buckets[frame.source] = (tokens, now)
            self.rate_dropped += 1
            return False
        self._buckets[frame.source] = (tokens - cost, now)
        return True

    def process(self) -> None:
        """Interpret newly verified transit messages."""
        for extracted in self.engine.drain_extracted():
            try:
                message = SignalingMessage.decode(extracted.message)
            except Exception:
                continue
            self.signaling_seen += 1
            if message.kind == UPDATE_LOCATOR and "locator" in message.params:
                self.locator_bindings[extracted.signer] = message.params["locator"]
            elif message.kind == RATE_LIMIT and "bps" in message.params:
                try:
                    self.rate_limits[extracted.signer] = float(message.params["bps"])
                except ValueError:
                    continue
            elif message.kind == CLOSE:
                self.closed_associations.add(extracted.assoc_id)
