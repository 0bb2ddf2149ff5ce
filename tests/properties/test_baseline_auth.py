"""Property: no baseline accepts modified authenticated bytes.

Hypothesis drives random bit flips, truncations, and delivery
permutations against every baseline adapter (and ALPHA itself on the
real netsim stack) and asserts the one invariant the whole comparison
rests on: the receiving application never consumes bytes that were
never sent — outside each scheme's *documented* window:

- LHAP tokens authenticate the sender, not the content, so a bit flip
  confined to the message region may be accepted (at most the one
  mutated packet). That is the feature matrix's ``insider_protection=
  False`` / outsider-only row, not a bug.
- ProMAC may *retract* earlier genuine messages when flips land in
  aggregated fragments — but retraction is visible state, and the
  flipped bytes themselves are never consumed.

The delivery harness mirrors :class:`repro.baselines.BaselineChain`
hop by hop (relay judgement, rewrite, multi-packet flush) without the
simulator, so examples stay cheap enough for Hypothesis.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks import SelectiveTagCorruptor, whole_payload
from repro.baselines import scheme_adapters
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.crypto.drbg import DRBG
from repro.netsim import Network
from repro.transports.netsim import EndpointAdapter

SCHEMES = sorted(scheme_adapters())
HOPS = 3  # sender, two relays, receiver — enough to exercise re-keying

messages_strategy = st.lists(
    st.binary(min_size=1, max_size=12), min_size=1, max_size=5
)


def deliver(adapter, payload, now, start_hop=1):
    """Walk one payload down the logical chain, like BaselineChain."""
    queue = [(payload, start_hop)]
    while queue:
        data, hop = queue.pop(0)
        if hop >= adapter.hops:
            try:
                adapter.receive(data, now)
            except Exception:
                pass
            continue
        try:
            forward, outs, _ = adapter.relay_judge(data, hop, now)
        except Exception:
            continue
        if not forward:
            continue
        for out in outs if outs else [data]:
            queue.append((out, hop + 1))


def run_stream(adapter, messages, mutate=None, mutate_index=0, order=None):
    payloads = []
    for i, message in enumerate(messages):
        now = 0.05 * (i + 1)
        payload = adapter.protect(message, now)
        if mutate is not None and i == mutate_index:
            payload = mutate(payload)
        payloads.append((payload, now))
    for i in order if order is not None else range(len(payloads)):
        deliver(adapter, *payloads[i])
    now = 0.05 * len(messages) + 0.1
    for _ in range(adapter.drain_rounds):
        now += adapter.drain_spacing
        for packet in adapter.flush_packets(now):
            deliver(adapter, packet, now)


def foreign_accepts(adapter, messages):
    """Accepted messages that were never sent (multiset difference)."""
    return sum(
        (Counter(adapter.accepted_messages()) - Counter(messages)).values()
    )


@pytest.mark.parametrize("scheme", SCHEMES)
@given(
    messages=messages_strategy,
    target=st.integers(min_value=0, max_value=4),
    position=st.integers(min_value=0, max_value=10_000),
    bit=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=15, deadline=None)
def test_bit_flip_is_never_consumed(scheme, messages, target, position, bit):
    adapter = scheme_adapters()[scheme](seed=11, hops=HOPS)

    def flip(payload: bytes) -> bytes:
        out = bytearray(payload)
        out[position % len(out)] ^= 1 << bit
        return bytes(out)

    run_stream(adapter, messages, mutate=flip, mutate_index=target % len(messages))
    allowed = 1 if scheme == "LHAP" else 0  # tokens don't bind bytes
    assert foreign_accepts(adapter, messages) <= allowed
    if scheme == "PROMAC":
        # Retraction is the only permitted side effect: consumed-then-
        # retracted genuine messages, never consumed foreign bytes.
        assert foreign_accepts(adapter, messages) == 0


@pytest.mark.parametrize("scheme", SCHEMES)
@given(
    messages=messages_strategy,
    target=st.integers(min_value=0, max_value=4),
    keep=st.integers(min_value=1, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_truncation_is_never_consumed(scheme, messages, target, keep):
    adapter = scheme_adapters()[scheme](seed=12, hops=HOPS)

    def truncate(payload: bytes) -> bytes:
        return payload[: keep % len(payload)]

    run_stream(
        adapter, messages, mutate=truncate, mutate_index=target % len(messages)
    )
    assert foreign_accepts(adapter, messages) == 0


@pytest.mark.parametrize("scheme", SCHEMES)
@given(
    messages=messages_strategy.flatmap(
        lambda msgs: st.permutations(range(len(msgs))).map(lambda p: (msgs, p))
    )
)
@settings(max_examples=15, deadline=None)
def test_reordered_delivery_never_invents_bytes(scheme, messages):
    msgs, order = messages
    adapter = scheme_adapters()[scheme](seed=13, hops=HOPS)
    run_stream(adapter, msgs, order=list(order))
    assert foreign_accepts(adapter, msgs) == 0
    # No duplication either: a permutation can lose messages (strict
    # orders desynchronise) but never multiply them.
    assert not Counter(adapter.accepted_messages()) - Counter(msgs)
    if scheme in ("HMAC-E2E", "PK-SIGN"):
        # Stateless-per-packet verification: any order delivers all.
        assert sorted(adapter.accepted_messages()) == sorted(msgs)


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    max_frames=st.integers(min_value=1, max_value=4),
    flips=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=10, deadline=None)
def test_alpha_never_consumes_corrupted_bytes(seed, max_frames, flips):
    """ALPHA on the real stack: random corruption on the first link.

    Whatever bytes get flipped, wherever they land in whatever packet
    type, the receiving application only ever sees messages the sender
    sent — the corrupted frames die at the first honest relay (or, for
    handshake/ack damage, the exchange simply fails).
    """
    from repro.transports.netsim import RelayAdapter

    net = Network.chain(4, seed=7)
    cfg = EndpointConfig(chain_length=256)
    s = EndpointAdapter(AlphaEndpoint("s", cfg, seed="ps"), net.nodes["s"])
    v = EndpointAdapter(AlphaEndpoint("v", cfg, seed="pv"), net.nodes["v"])
    relays = [RelayAdapter(net.nodes[name]) for name in ("r1", "r2", "r3")]
    s.connect("v")
    net.simulator.run(until=1.0)
    messages = [b"alpha-%d" % i for i in range(4)]
    for i, message in enumerate(messages):
        net.simulator.schedule_at(1.0 + 0.05 * i, s.send, "v", message)
    SelectiveTagCorruptor(
        net.nodes["r1"],
        whole_payload,
        kind="alpha",
        rng=DRBG(seed, personalization=b"property-corruptor"),
        flips_per_frame=flips,
        max_frames=max_frames,
    )
    net.simulator.run(until=12.0)
    received = [message for _, message in v.received]
    assert not Counter(received) - Counter(messages)
    assert sum(r.engine.stats.get("dropped", 0) for r in relays[1:]) == 0
