"""Property test: ``AlphaEndpoint.next_deadline()`` is never late.

``poll`` services every association on every turn (PROTOCOL.md §15),
and an event loop may sleep, or jump a virtual clock, until
``next_deadline()``. That is sound only if a poll at any instant
strictly before the reported deadline has nothing to emit: no packet,
no delivery, no failure.

Randomized send/advance/deliver/drop schedules drive an endpoint pair
over reliable × rekey × adaptive. After every step both endpoints are
probed with a poll at an instant drawn from ``[now, deadline)``. Once
the traffic and every retired association have drained, neither
endpoint reports a deadline, except an adaptive controller's next tick.
"""

from hypothesis import given, settings, strategies as st

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import ReliabilityMode


def make_world(seed: int, config_kwargs: dict):
    config = EndpointConfig(**config_kwargs)
    a = AlphaEndpoint("a", config, seed=seed)
    b = AlphaEndpoint("b", config, seed=seed + 1)
    return {"a": a, "b": b, "outbox": [], "delivered": []}


def absorb(world, name, out):
    world["outbox"].extend((name, dest, data) for dest, data in out.replies)
    world["delivered"].extend(m.message for _peer, m in out.delivered)


def poll_world(world, now):
    for name in ("a", "b"):
        absorb(world, name, world[name].poll(now))


def transfer(world, index, now, drop):
    """Deliver (or drop) outbox packet ``index``."""
    if not world["outbox"]:
        return
    sender, dest, data = world["outbox"].pop(index % len(world["outbox"]))
    if not drop:
        absorb(world, dest, world[dest].on_packet(data, sender, now))


def probe(world, now, frac):
    """Poll both endpoints strictly before their earliest deadline and
    assert the polls are silent; returns the probe instant."""
    deadlines = [
        d for d in (world[n].next_deadline() for n in ("a", "b")) if d is not None
    ]
    horizon = min(deadlines, default=now + 1.0)
    t = now + frac * (horizon - now)
    if t >= horizon:
        return now  # work is due now (or rounding hit it): nothing to check
    for name in ("a", "b"):
        out = world[name].poll(t)
        assert not out.replies, (name, t, horizon)
        assert not out.delivered, (name, t, horizon)
        assert not out.failures, (name, t, horizon)
    return t


schedule = st.lists(
    st.tuples(
        st.sampled_from(["advance", "send", "deliver", "drop"]),
        st.integers(min_value=0, max_value=999),
    ),
    min_size=10,
    max_size=120,
)


class TestNextDeadline:
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        ops=schedule,
        reliable=st.booleans(),
        rekey=st.booleans(),
        adaptive=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_poll_before_it_is_silent(
        self, seed, ops, reliable, rekey, adaptive
    ):
        world = make_world(
            seed,
            dict(
                # Short chains make re-keying frequent; without re-keying
                # the chains must outlast the longest schedule (one
                # exchange per send, two chain elements each).
                chain_length=16 if rekey else 256,
                rekey_threshold=2 if rekey else 0,
                retransmit_timeout_s=0.05,
                max_retries=4,
                rto_max_s=1.0,
                reliability=(
                    ReliabilityMode.RELIABLE if reliable
                    else ReliabilityMode.UNRELIABLE
                ),
                adaptive=adaptive,
            ),
        )
        a, b = world["a"], world["b"]
        _, hs1 = a.connect("b")
        world["outbox"].append(("a", "b", hs1))

        now = 0.0
        sent = 0
        for op, arg in ops:
            if op == "advance":
                now += (arg % 100) / 250.0  # 0..0.4s steps
                poll_world(world, now)
            elif op == "send":
                # Both directions, so packets consume both chains.
                src, dest = ("a", "b") if arg % 2 else ("b", "a")
                peers = world[src]._by_peer
                if dest in peers and not peers[dest].down:
                    world[src].send(dest, b"m%d" % sent)
                    sent += 1
                poll_world(world, now)
            else:
                transfer(world, arg, now, drop=(op == "drop"))
            now = probe(world, now, arg / 1000.0)

        # Drain: deliver everything, then jump to the next deadline, as
        # an event loop would, until only controller ticks are left.
        def ticks(ep):
            return min(
                (
                    assoc.controller.next_tick
                    for assoc in ep._by_id.values()
                    if assoc.controller is not None
                ),
                default=None,
            )

        for _ in range(2000):
            while world["outbox"]:
                transfer(world, 0, now, drop=False)
            now = probe(world, now, 0.5)
            retired = any(x.retired for ep in (a, b) for x in ep._by_id.values())
            if not retired and all(ep.next_deadline() == ticks(ep) for ep in (a, b)):
                break
            deadlines = [
                d for d in (a.next_deadline(), b.next_deadline()) if d is not None
            ]
            assert deadlines, "a retired association with no deadline to drain it"
            now = max(now, min(deadlines))
            poll_world(world, now)
        else:
            raise AssertionError("the pair never went quiet")
        assert len(world["delivered"]) == len(set(world["delivered"]))
