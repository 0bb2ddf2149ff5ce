"""Fault-schedule determinism properties (§13 chaos-corpus foundation).

The churn corpus is only trustworthy if a seeded :class:`FaultSchedule`
is perfectly reproducible: the same seed must yield the identical
``fired`` event sequence *and* identical protocol outcomes, run after
run. Hypothesis drives the scenario space (churn intensity, crash
cycles, message load) and every drawn scenario is executed twice from
scratch; any divergence — a DRBG leak, wall-clock contamination, dict-
order dependence — fails the property.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.netsim import Network
from repro.netsim.faults import FaultSchedule
from repro.netsim.link import LinkConfig
from repro.transports.netsim import EndpointAdapter, RelayAdapter


@st.composite
def scenarios(draw):
    return dict(
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        messages=draw(st.integers(min_value=1, max_value=5)),
        mean_up_ds=draw(st.integers(min_value=10, max_value=40)),
        mean_down_ds=draw(st.integers(min_value=2, max_value=10)),
        crash=draw(st.booleans()),
    )


def run_once(scenario: dict) -> tuple:
    """One full seeded churn run, reduced to a comparable fingerprint."""
    net = Network.chain(
        2,
        config=LinkConfig(latency_s=0.003, jitter_s=0.001, loss_rate=0.03),
        seed=scenario["seed"],
    )
    faults = FaultSchedule(net)
    # reroute=False: the chain has no alternate path, so down windows
    # model radio loss (stale routes, frames dropped) rather than
    # stripping the route table.
    faults.link_churn(
        "s", "r1",
        start=5.0, end=20.0,
        mean_up_s=scenario["mean_up_ds"] / 10.0,
        mean_down_s=scenario["mean_down_ds"] / 10.0,
        reroute=False,
    )
    if scenario["crash"]:
        faults.node_crash("r1", at=6.0, restart_at=6.5)
    config = EndpointConfig(
        mode=Mode.BASE,
        reliability=ReliabilityMode.RELIABLE,
        retransmit_timeout_s=0.15,
        rto_max_s=1.0,
        max_retries=30,
        dead_peer_threshold=0,
        rekey_threshold=0,
    )
    seed = scenario["seed"]
    signer = EndpointAdapter(
        AlphaEndpoint("s", config, seed=f"{seed}-s"), net.nodes["s"]
    )
    verifier = EndpointAdapter(
        AlphaEndpoint("v", config, seed=f"{seed}-v"), net.nodes["v"]
    )
    relay = RelayAdapter(net.nodes["r1"])
    signer.connect("v")
    net.simulator.run(until=5.0)
    messages = scenario["messages"]
    for i in range(messages):
        signer.send("v", b"replay-%d" % i)
    while net.simulator._queue and len(signer.reports) < messages:
        if net.simulator.events_processed > 50_000:
            break
        if net.simulator.now > 120.0:
            break
        net.simulator.step()
    del relay
    return (
        tuple(faults.planned),
        tuple(faults.fired),
        tuple(message for _, message in verifier.received),
        tuple(sorted(f.reason for _, f in signer.failures)),
        net.simulator.events_processed,
        round(net.simulator.now, 9),
    )


@settings(max_examples=10, deadline=None)
@given(scenario=scenarios())
def test_seeded_fault_schedule_replays_identically(scenario: dict) -> None:
    first = run_once(scenario)
    second = run_once(scenario)
    assert first[0] == second[0], "planned fault sequences diverged"
    assert first[1] == second[1], "fired fault sequences diverged"
    assert first[2:] == second[2:], (
        "identical seeds produced different exchange outcomes: "
        f"{first[2:]} != {second[2:]}"
    )


@settings(max_examples=10, deadline=None)
@given(scenario=scenarios())
def test_fired_faults_are_time_ordered(scenario: dict) -> None:
    """The token guards keep ``fired`` a monotone, well-formed history:
    non-decreasing times, and never a restore whose failure didn't act."""
    _, fired, *_ = run_once(scenario)
    times = [event.time for event in fired]
    assert times == sorted(times)
    down = {"link": False, "node": False}
    for event in fired:
        if event.kind == "link-down":
            down["link"] = True
        elif event.kind == "link-up":
            assert down["link"], "link-up fired before any link-down acted"
            down["link"] = False
        elif event.kind == "node-crash":
            down["node"] = True
        elif event.kind == "node-restart":
            assert down["node"], "node-restart fired before its crash"
            down["node"] = False
