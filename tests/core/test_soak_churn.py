"""Churn soak: a churn-rate × path-redundancy grid (``-m soak``).

Excluded from tier-1. A signer with N registered relay paths (one per
parallel 2-hop branch) faces a schedule that permanently kills the
branches one after another at a configured churn rate, leaving exactly
one survivor. Every kill lands on the then-active path, so the
association must classify hop death and fail over once per kill —
under the fastest churn, before the previous classification's dust has
settled. The grid asserts full delivery, one failover per kill, zero
terminal failures, and the no-double-spend invariant on the verifier's
consumed chain elements.
"""

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.relay import RelayEngine
from repro.crypto.hashes import get_hash
from repro.netsim import Network
from repro.netsim.faults import FaultSchedule
from repro.netsim.link import LinkConfig
from repro.obs import Observability
from repro.transports.netsim import EndpointAdapter, RelayAdapter

from tests.regression.churn_harness import (
    _provision_backup,
    assert_no_double_spend,
    route_installer,
)

MESSAGES = 32
EVENT_BUDGET = 200_000
TIME_BUDGET_S = 600.0


def build_multipath(seed: int, paths: int, obs: Observability):
    """``s`` and ``v`` joined by ``paths`` parallel 2-hop branches."""
    net = Network(seed=seed, obs=obs)
    net.add_node("s")
    net.add_node("v")
    relays = {}
    for i in range(1, paths + 1):
        name = f"r{i}"
        net.add_node(name)
        branch = LinkConfig(latency_s=0.003 + 0.002 * i, jitter_s=0.0005)
        net.connect("s", name, branch)
        net.connect(name, "v", branch)
    net.compute_routes()  # shortest: via r1
    for i in range(1, paths + 1):
        name = f"r{i}"
        relays[name] = RelayAdapter(
            net.nodes[name],
            engine=RelayEngine(get_hash("sha1"), obs=obs, name=name),
        )
    return net, relays


@pytest.mark.soak
@pytest.mark.parametrize("paths", [2, 3])
@pytest.mark.parametrize("churn_period_s", [6.0, 12.0])
def test_soak_survives_sequential_path_deaths(paths, churn_period_s):
    seed = 1000 + paths * 10 + int(churn_period_s)
    obs = Observability()
    net, relays = build_multipath(seed, paths, obs)
    config = EndpointConfig(
        mode=Mode.BASE,
        batch_size=1,
        reliability=ReliabilityMode.RELIABLE,
        chain_length=2048,
        retransmit_timeout_s=0.15,
        max_retries=60,
        rto_max_s=1.0,
        dead_peer_threshold=0,
        rekey_threshold=0,
        failover=True,
        max_failovers=4 * paths,
        on_path_switch=route_installer(net),
    )
    signer = EndpointAdapter(
        AlphaEndpoint("s", config, seed=f"{seed}-s", obs=obs), net.nodes["s"]
    )
    verifier = EndpointAdapter(
        AlphaEndpoint("v", config, seed=f"{seed}-v", obs=obs), net.nodes["v"]
    )
    for i in range(1, paths + 1):
        signer.endpoint.paths.register("v", f"via-r{i}", (f"r{i}",))
    signer.connect("v")
    net.simulator.run(until=5.0)
    assert signer.established("v")
    for name, relay in relays.items():
        if name != "r1":  # r1 carried the handshake and is warm already
            _provision_backup(relay, signer, verifier)
    # Kill all but the last branch, one per churn period, in rank
    # order — each kill hits the then-active path. restart_at=None:
    # explicit permanent death.
    faults = FaultSchedule(net)
    kills = paths - 1
    for i in range(kills):
        faults.node_crash(f"r{i + 1}", at=5.05 + i * churn_period_s)
    # Spread the sends across the whole kill schedule (plus the ~5 s
    # classification tail), so every path death catches live traffic —
    # a front-loaded burst would finish before the later kills land.
    span = kills * churn_period_s + 8.0
    for i in range(MESSAGES):
        net.simulator.schedule_at(
            5.0 + i * span / MESSAGES, signer.send, "v", b"soak-%d" % i
        )
    while net.simulator._queue and len(signer.reports) < MESSAGES:
        if net.simulator.events_processed > EVENT_BUDGET:
            break
        if net.simulator.now > TIME_BUDGET_S:
            break
        net.simulator.step()
    stats = signer.endpoint.resilience_stats()
    assert len(signer.reports) >= MESSAGES, (
        f"{len(signer.reports)}/{MESSAGES} terminal verdicts after "
        f"{net.simulator.events_processed} events"
    )
    assert len(verifier.received) >= MESSAGES
    assert not {f.reason for _, f in signer.failures}
    assert stats.failovers >= kills, (
        f"only {stats.failovers} failovers for {kills} path deaths"
    )
    active = signer.endpoint.paths.active("v")
    assert active is not None and active.path_id == f"via-r{paths}", (
        f"association did not end on the sole surviving path: {active}"
    )

    class Run:  # assert_no_double_spend wants a .obs attribute
        pass

    run = Run()
    run.obs = obs
    assert_no_double_spend(run)
