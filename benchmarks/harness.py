"""Direct-drive protocol harness shared by the benchmarks.

Runs signer/verifier/relay engines against each other in memory (no
simulator) on :class:`~repro.canonical.CanonicalChannel`, with a
*separate hash-operation counter per role* so the Table 1 benchmarks
measure each role's cryptographic work exactly.

Each channel's :class:`~repro.obs.MetricsRegistry` (``channel.obs.registry``)
has the per-role :class:`~repro.crypto.hashes.OpCounter` blocks *bound*
into it (``signer.hash_ops``, ``relay.mac_bytes``, ``verifier.labels``,
...), so benchmarks read one registry snapshot instead of juggling three
ad-hoc counters — and the crypto hot path is untouched: bound samples
are pulled lazily at snapshot time. Pass ``observe=True`` to also
enable event tracing in the engines (benchmarks leave it off so the
timed path stays bare).
"""

from __future__ import annotations

from repro.canonical import CanonicalChannel
from repro.core.modes import Mode, ReliabilityMode
from repro.core.signer import ChannelConfig
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import OpCounter
from repro.obs import MetricsRegistry, Observability

ASSOC = 0xBE7C

#: OpCounter fields exported per role through the registry.
_OP_FIELDS = ("hash_ops", "hash_bytes", "mac_ops", "mac_bytes", "labels")


def build_channel(
    mode: Mode = Mode.BASE,
    reliability: ReliabilityMode = ReliabilityMode.UNRELIABLE,
    batch_size: int = 1,
    hash_name: str = "sha1",
    chain_length: int = 4096,
    seed: int | str = 0,
    observe: bool = False,
) -> CanonicalChannel:
    counters = {role: OpCounter() for role in ("signer", "verifier", "relay")}
    # The registry is always live (it is the pull substrate the Table 1
    # benches diff); the tracer/engine-event side is opt-in.
    registry = MetricsRegistry(enabled=True)
    for role, counter in counters.items():
        for field in _OP_FIELDS:
            registry.bind(
                f"{role}.{field}",
                (lambda c=counter, f=field: dict(getattr(c, f)))
                if field == "labels"
                else (lambda c=counter, f=field: getattr(c, f)),
            )
    return CanonicalChannel(
        DRBG(seed, personalization=b"bench-harness"),
        ChannelConfig(mode=mode, reliability=reliability, batch_size=batch_size),
        obs=Observability(enabled=observe, registry=registry),
        hash_name=hash_name,
        chain_length=chain_length,
        counters=counters,
        assoc_id=ASSOC,
    )


def run_exchange(
    channel: CanonicalChannel, messages: list[bytes], now: float = 0.0
) -> int:
    """Push one batch through signer -> relay -> verifier (-> A2 back).

    Returns the number of messages the verifier delivered.
    """
    delivered, _ = channel.exchange(messages, now)
    return len(delivered)
