"""Extension experiment X5 — relay scalability with concurrent flows.

Paper Section 3.1.1: "On forwarding devices in particular,
pre-signatures offer significantly better scalability with the number
of flows than regularly signed messages", and the low buffer
requirements "render memory exhaustion attacks more difficult". This
bench measures one relay's memory and per-packet CPU as the number of
concurrent associations through it grows.

Two scaling sections extend the original sub-5 ms microbench
(PROTOCOL.md §15):

- **flows × relays grid** — flows are spread over a relay mesh by the
  :class:`~benchmarks.directory.RelayDirectory`; each relay is a queued
  server with a fixed per-frame service time, so the grid exposes a
  real saturation knee (goodput stops scaling with offered flows) in
  *simulated* time — deterministic, and pinned exactly in tier-1.
- **idle-association scaling** — one endpoint holding 10k established
  associations, measuring poll cost with everything idle. The deadline
  heap makes this O(due timers): 10× more idle associations must cost
  <2× per poll turn, where the historical full scan cost 10×.
"""

import time

from benchmarks.conftest import format_table
from benchmarks.directory import RelayDirectory
from repro.core.adapter import EndpointAdapter, RelayAdapter
from repro.core.bootstrap import ChainSet, build_handshake
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import get_hash
from repro.netsim import Network
from repro.netsim.link import LinkConfig
from repro.obs import Observability, telemetry
from repro.transports import Reactor, UdpTransport

FLOW_COUNTS = (1, 4, 8, 16)
BATCH = 8
MESSAGE_SIZE = 512

# flows × relays saturation grid.
GRID_FLOWS = (4, 8, 16, 32)
GRID_RELAYS = (1, 2, 4)
GRID_MSGS = 6
#: Queued per-frame service time at each relay (the modeled cost of
#: hop-by-hop verify + re-sign). 2 ms ≈ a 500 frame/s relay.
GRID_SERVICE_S = 0.002
GRID_BUDGET_S = 30.0

# Idle-association scaling.
IDLE_COUNTS = (1_000, 10_000)
IDLE_POLLS = 2_000


def run_flows(n_flows: int, mode: Mode, seed=0):
    """A star: n sources -> one relay -> n sinks, one association each."""
    net = Network(seed=seed)
    net.add_node("relay")
    for i in range(n_flows):
        net.add_node(f"src{i}")
        net.add_node(f"dst{i}")
        net.connect(f"src{i}", "relay", LinkConfig(latency_s=0.002))
        net.connect("relay", f"dst{i}", LinkConfig(latency_s=0.002))
    net.compute_routes()
    relay = RelayAdapter(net.nodes["relay"])
    cfg = EndpointConfig(mode=mode, batch_size=BATCH, chain_length=256)
    pairs = []
    for i in range(n_flows):
        s = EndpointAdapter(AlphaEndpoint(f"src{i}", cfg, seed=f"{seed}s{i}"),
                            net.nodes[f"src{i}"])
        d = EndpointAdapter(AlphaEndpoint(f"dst{i}", cfg, seed=f"{seed}d{i}"),
                            net.nodes[f"dst{i}"])
        s.connect(f"dst{i}")
        pairs.append((s, d))
    net.simulator.run(until=2.0)
    peak_buffer = 0

    for i, (s, d) in enumerate(pairs):
        for j in range(BATCH):
            s.send(f"dst{i}", bytes([j]) * MESSAGE_SIZE)
    # Sample the relay buffer while traffic is in flight.
    end = net.simulator.now + 20.0
    while net.simulator.now < end and net.simulator.pending:
        net.simulator.run(until=net.simulator.now + 0.002)
        peak_buffer = max(peak_buffer, relay.engine.buffered_bytes)
    delivered = sum(len(d.received) for _, d in pairs)
    ops = relay.engine._hash.counter
    return {
        "delivered": delivered,
        "expected": n_flows * BATCH,
        "peak_buffer": peak_buffer,
        "hash_ops": ops.hash_ops + ops.mac_ops,
    }


def test_flow_scaling(emit, benchmark):
    rows = []
    results = {}
    for mode, tag in ((Mode.CUMULATIVE, "ALPHA-C"), (Mode.MERKLE, "ALPHA-M")):
        for flows in FLOW_COUNTS:
            r = run_flows(flows, mode, seed=flows)
            results[(tag, flows)] = r
            assert r["delivered"] == r["expected"], (tag, flows, r)
            rows.append(
                [
                    tag,
                    flows,
                    r["peak_buffer"],
                    f"{r['peak_buffer'] / flows:.0f}",
                    f"{r['hash_ops'] / r['delivered']:.1f}",
                ]
            )
        # Full-message buffering alternative for contrast.
        rows.append(
            [f"{tag} w/o pre-sigs*", FLOW_COUNTS[-1],
             FLOW_COUNTS[-1] * BATCH * MESSAGE_SIZE, BATCH * MESSAGE_SIZE, "-"]
        )
    table = format_table(
        ["mode", "flows", "relay peak buffer (B)", "per flow (B)",
         "relay ops/message"],
        rows,
    )
    emit(
        "x5_flow_scaling",
        table + "\n\n* hypothetical relay that buffers whole messages "
        "instead of pre-signatures (Section 3.1.1's comparison). "
        "Pre-signature buffers grow by n*h (ALPHA-C) or h (ALPHA-M) per "
        "flow; per-message CPU is constant in the number of flows.",
    )

    # Scalability claims:
    # ALPHA-M relay state per flow is one root per buffered exchange,
    # independent of batch size (sends trickle in, so a flow may span a
    # few exchanges).
    for flows in FLOW_COUNTS:
        assert results[("ALPHA-M", flows)]["peak_buffer"] <= flows * 20 * 4
        assert results[("ALPHA-M", flows)]["peak_buffer"] < results[
            ("ALPHA-C", flows)
        ]["peak_buffer"]
    # ALPHA-C grows linearly with batch size but is ~25x below
    # full-message buffering.
    c16 = results[("ALPHA-C", 16)]["peak_buffer"]
    assert c16 <= 16 * BATCH * 20
    assert c16 * 20 <= 16 * BATCH * MESSAGE_SIZE
    # CPU per message is flat across flow counts (within noise).
    per_msg = [
        results[("ALPHA-C", f)]["hash_ops"] / results[("ALPHA-C", f)]["delivered"]
        for f in FLOW_COUNTS
    ]
    assert max(per_msg) - min(per_msg) < 1.5

    benchmark.pedantic(run_flows, args=(4, Mode.CUMULATIVE), kwargs={"seed": 99},
                       rounds=3, iterations=1)

def _queued_server(node, service_s: float):
    """Turn a netsim node into a single-server queue via its delay hook.

    Each forwarded frame occupies the node for ``service_s``; frames
    arriving while it is busy wait their turn. This is what makes relay
    saturation *appear in simulated time* — without it the simulator
    forwards in zero time and no flow count could ever saturate a hop.
    """
    state = {"free_at": 0.0}

    def delay(frame, stage):
        now = node.simulator.now
        start = max(now, state["free_at"])
        state["free_at"] = start + service_s
        return state["free_at"] - now

    node.processing_delay = delay


def run_grid_cell(n_flows: int, n_relays: int, seed=0):
    """n flows spread over a directory-coordinated relay mesh.

    Relays register with the directory; each client fetches its ranked
    single-hop path (least loaded relay first) and wires its route
    through the assigned relay. Returns simulated-time goodput.
    """
    net = Network(seed=seed)
    directory = RelayDirectory(ttl_s=3600.0)
    relays = {}
    for r in range(n_relays):
        name = f"relay{r}"
        net.add_node(name)
        _queued_server(net.nodes[name], GRID_SERVICE_S)
        relays[name] = RelayAdapter(net.nodes[name])
        directory.register(name, now=0.0)
    cfg = EndpointConfig(chain_length=64, rekey_threshold=0)
    assignments = []
    for i in range(n_flows):
        (path,) = directory.paths(f"src{i}", f"dst{i}", now=0.0,
                                  hops=1, count=1)
        relay = path.hops[0]
        assignments.append(relay)
        net.add_node(f"src{i}")
        net.add_node(f"dst{i}")
        net.connect(f"src{i}", relay, LinkConfig(latency_s=0.002))
        net.connect(relay, f"dst{i}", LinkConfig(latency_s=0.002))
    net.compute_routes()
    pairs = []
    for i in range(n_flows):
        s = EndpointAdapter(AlphaEndpoint(f"src{i}", cfg, seed=f"{seed}s{i}"),
                            net.nodes[f"src{i}"])
        d = EndpointAdapter(AlphaEndpoint(f"dst{i}", cfg, seed=f"{seed}d{i}"),
                            net.nodes[f"dst{i}"])
        s.connect(f"dst{i}")
        pairs.append((s, d))
    net.simulator.run(until=5.0)
    expected = n_flows * GRID_MSGS
    start = net.simulator.now
    for i, (s, d) in enumerate(pairs):
        for j in range(GRID_MSGS):
            s.send(f"dst{i}", bytes([j]) * MESSAGE_SIZE)
    deadline = start + GRID_BUDGET_S
    while net.simulator.now < deadline and net.simulator.pending:
        net.simulator.run(until=net.simulator.now + 0.01)
        if sum(len(d.received) for _, d in pairs) >= expected:
            break
    delivered = sum(len(d.received) for _, d in pairs)
    elapsed = max(net.simulator.now - start, 1e-9)
    per_relay = {
        name: assignments.count(name) for name in sorted(relays)
    }
    return {
        "delivered": delivered,
        "expected": expected,
        "elapsed_sim_s": elapsed,
        "goodput_msgs_per_s": delivered / elapsed,
        "spread": per_relay,
    }


def saturation_point(goodputs: dict[int, float]) -> int:
    """The knee: the largest flow count that still scaled goodput.

    Scanning flow counts in order, the mesh is saturated at the first
    step where aggregate goodput stops growing by at least 5%; the
    returned value is the last flow count *before* that knee (or the
    largest measured if goodput never stopped scaling).
    """
    counts = sorted(goodputs)
    last_scaling = counts[0]
    for prev, cur in zip(counts, counts[1:]):
        if goodputs[cur] < goodputs[prev] * 1.05:
            break
        last_scaling = cur
    return last_scaling


def run_idle_scaling(n_assocs: int, polls: int, seed=0):
    """One endpoint, ``n_assocs`` established idle associations.

    Associations are installed responder-side from crafted HS1 packets
    (no peer endpoints needed), then the endpoint is polled repeatedly
    at a fixed instant: nothing is due, so the deadline heap should
    answer in O(1) regardless of how many associations exist.
    """
    config = EndpointConfig(chain_length=16, rekey_threshold=0)
    hub = AlphaEndpoint("hub", config, seed=seed)
    hash_fn = get_hash(config.hash_name)
    rng = DRBG(f"idle-bench-{seed}")
    now = 0.0
    for i in range(n_assocs):
        chains = ChainSet.create(hash_fn, rng.fork(f"c{i}"),
                                 config.chain_length)
        packet = build_handshake(
            assoc_id=i + 1, chains=chains, hash_name=config.hash_name,
            rng=rng.fork(f"hs{i}"), is_response=False,
        )
        hub.on_packet(packet.encode(), f"client{i}", now)
    assert len(hub._by_id) == n_assocs
    hub.poll(now)  # drain the install-time dirty set once
    t0 = time.perf_counter()
    for _ in range(polls):
        hub.poll(now)
    elapsed = time.perf_counter() - t0
    return {
        "associations": n_assocs,
        "poll_us": elapsed / polls * 1e6,
    }


def run_reactor_telemetry(messages: int = 8, seed=0):
    """Real-socket loopback drive with event-loop telemetry enabled.

    Two endpoints share one enabled observability context and one
    reactor. The responder joins the loop *late*, so the initiator's
    handshake retransmit deadline genuinely fires — that is what puts
    honest samples in ``telemetry.heap.lag_ms`` (a clean loopback
    exchange never lets a deadline pass). Asserts the loop recorded
    turns and heap-lag samples (PROTOCOL.md §16).
    """
    obs = Observability()
    cfg = EndpointConfig(chain_length=64, retransmit_timeout_s=0.02)
    lag = obs.registry.histogram(telemetry.HEAP_LAG_MS, telemetry.MS_BOUNDS)
    with Reactor(obs=obs) as reactor:
        ta = reactor.add(
            UdpTransport(AlphaEndpoint("a", cfg, seed=f"{seed}a", obs=obs))
        )
        tb = UdpTransport(AlphaEndpoint("b", cfg, seed=f"{seed}b", obs=obs))
        ta.register_peer("b", tb.address)
        tb.register_peer("a", ta.address)
        ta.connect("b")
        # The HS1 lands in b's kernel buffer unanswered until b joins.
        assert reactor.run_until(lambda: lag.count > 0), "no deadline fired"
        reactor.add(tb)
        assert reactor.run_until(
            lambda: ta.endpoint.association("b").established
            and tb.endpoint.association("a").established
        )
        for i in range(messages):
            ta.send("b", b"telemetry-%d" % i)
        assert reactor.run_until(lambda: len(tb.received) == messages)
    turns = obs.registry.histogram(telemetry.TURN_MS, telemetry.MS_BOUNDS)
    assert turns.count > 0 and lag.count > 0


def test_grid_saturation(emit):
    goodput_by_flows = {relays: {} for relays in GRID_RELAYS}
    rows = []
    for relays in GRID_RELAYS:
        for flows in GRID_FLOWS:
            r = run_grid_cell(flows, relays, seed=flows * 100 + relays)
            goodput_by_flows[relays][flows] = r["goodput_msgs_per_s"]
            rows.append(
                [
                    flows,
                    relays,
                    f"{r['delivered']}/{r['expected']}",
                    f"{r['elapsed_sim_s']:.2f}",
                    f"{r['goodput_msgs_per_s']:.0f}",
                ]
            )
    saturation = {
        relays: saturation_point(goodput_by_flows[relays])
        for relays in GRID_RELAYS
    }
    table = format_table(
        ["flows", "relays", "delivered", "sim s", "goodput (msg/s)"], rows
    )
    notes = "".join(
        f"\nsaturation at {relays} relay(s): {flows} flows"
        for relays, flows in saturation.items()
    )
    emit("x5_grid_saturation", table + "\n" + notes)
    # More relays push the knee outward: the directory actually spreads
    # load, so the 4-relay mesh must not saturate before the 1-relay one.
    assert saturation[GRID_RELAYS[-1]] >= saturation[GRID_RELAYS[0]]
    # And a loaded single relay must be measurably saturated inside the
    # grid (otherwise the grid proves nothing about the knee).
    assert saturation[GRID_RELAYS[0]] < GRID_FLOWS[-1]


def test_idle_association_scaling(emit):
    results = [run_idle_scaling(n, IDLE_POLLS, seed=7) for n in IDLE_COUNTS]
    rows = [[r["associations"], f"{r['poll_us']:.2f}"] for r in results]
    emit(
        "x5_idle_scaling",
        format_table(["idle associations", "poll (us)"], rows),
    )
    # The acceptance datapoint: 10x the idle associations, <2x the poll
    # cost. The historical full scan was 10x here by construction.
    base, big = results[0], results[-1]
    assert big["associations"] >= 10_000
    assert big["poll_us"] < 2 * max(base["poll_us"], 0.5)


def smoke():
    """Tier-1 smoke: star relay, directory grid, and idle-poll scaling.

    Runs every measurement path at toy scale and returns the grid's
    simulated-time figures, which ``tests/benchmarks/test_bench_smoke.py``
    pins exactly. The idle-poll and reactor-telemetry drives are host
    wall-clock, so they run for bit-rot only and return nothing here.
    """
    out = run_flows(1, Mode.CUMULATIVE, seed=3)
    assert out["delivered"] == out["expected"]
    assert out["hash_ops"] > 0
    from benchmarks.conftest import scaled_down
    import benchmarks.bench_flow_scaling as module

    with scaled_down(
        module,
        GRID_FLOWS=(2, 4),
        GRID_RELAYS=(2,),
        GRID_MSGS=3,
        GRID_BUDGET_S=20.0,
        IDLE_COUNTS=(100, 400),
        IDLE_POLLS=200,
    ):
        cell = run_grid_cell(module.GRID_FLOWS[-1], module.GRID_RELAYS[0],
                             seed=5)
        assert cell["delivered"] == cell["expected"], cell
        # Directory assignment really spread the flows across the mesh.
        assert all(n > 0 for n in cell["spread"].values())
        for n in module.IDLE_COUNTS:
            run_idle_scaling(n, module.IDLE_POLLS, seed=7)
    run_reactor_telemetry(messages=4, seed=13)
    return {
        "grid_goodput_msgs_per_s": cell["goodput_msgs_per_s"],
        "grid_delivered": cell["delivered"],
    }
