"""The endpoint's idle signer turn changes nothing but its cost.

``AlphaEndpoint._collect_signer_output`` returns at once when the
association has no controller and ``SignerSession.turn_is_idle`` holds:
nothing in flight or queued, no report or failure to drain, no
completion to credit and no failure streak (PROTOCOL.md §15). That is
the receiving endpoint's turn after every S1 and S2 it accepts.

Each run below is driven twice: as built, and with ``turn_is_idle``
patched to ``False``, so every turn runs in full. After every
``on_packet`` and ``poll`` the two must agree on the ``EndpointOutput``
(replies, deliveries, reports and failures, in order), on the
endpoint's aggregate stats, on each association's credit, streak and
state, and on the path ranking; at the end, on every stats block.

The protocol drives are the wedge corpus, a bidirectional re-keying
exchange, the black-holed failover drive of ``test_one_book.py`` and an
adaptive-controller pair. Two states no protocol drive leaves at a turn
boundary are set by hand, so that each condition of the predicate has a
run that needs it: a report appended after its exchange's turn drained
and credited it (a completion's report and its credit otherwise always
meet in one turn), a failure left by a direct ``fail_queued`` call, and
a failure streak at the dead-peer threshold.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.signer import SignerSession
from tests.conformance.test_adaptive_switch import run_switching
from tests.core.test_rekeying import rekey_exchange
from tests.obs.test_one_book import drive
from tests.regression.corpus import CASES
from tests.regression.harness import run_wedge


def paired(config=None):
    """Two established endpoints, no packet in flight."""
    a = AlphaEndpoint("a", config, seed=1)
    b = AlphaEndpoint("b", config, seed=2)
    _, hs1 = a.connect("b")
    a.on_packet(b.on_packet(hs1, "a", 0.0).replies[0][1], "b", 0.0)
    return a, b


def report_left_to_drain():
    """A report appended outside any turn after the exchange's own turn
    drained and credited it: the next turn must drain it too."""
    a, b = paired(EndpointConfig(reliability=ReliabilityMode.RELIABLE))
    a.send("b", b"delivered")
    (_, s1), = a.poll(0.0).replies
    (_, a1), = b.on_packet(s1, "a", 0.0).replies
    (_, s2), = a.on_packet(a1, "b", 0.0).replies
    (_, a2), = b.on_packet(s2, "a", 0.0).replies
    (report,) = a.on_packet(a2, "b", 0.0).reports
    a.association("b").signer.reports.append(report[1])
    a.poll(0.1)


def failure_left_to_drain():
    """A queue failed outside any turn: the next turn must drain it."""
    a, _ = paired()
    a.send("b", b"withdrawn")
    a.association("b").signer.fail_queued("withdrawn", 0.0)
    a.poll(0.1)


def failure_streak():
    """A failure streak at the threshold: the next turn must weigh it."""
    config = EndpointConfig()
    a, _ = paired(config)
    a.association("b").signer.consecutive_failures = config.dead_peer_threshold
    a.poll(0.1)


RUNS = {
    **{
        f"wedge-{case.name}": functools.partial(
            run_wedge, seed=case.seed, mode=case.mode, batch=case.batch,
            hops=case.hops,
        )
        for case in CASES
    },
    "bidirectional-rekey": lambda: rekey_exchange(
        EndpointConfig(chain_length=16), both_ways=True
    ),
    "black-holed-failover": lambda: drive(Mode.BASE, 0, 0.0, paths=2, messages=3),
    "adaptive-pair": lambda: run_switching(0.12, seed=31),
    "report-left-to-drain": report_left_to_drain,
    "failure-left-to-drain": failure_left_to_drain,
    "failure-streak": failure_streak,
}
#: Runs that reach the early return: every protocol drive without a
#: controller (a controller's turn always runs in full).
EARLY_RUNS = {
    name for name in RUNS
    if name.startswith(("wedge-", "bidirectional-", "black-holed-"))
}


def endpoint_state(endpoint):
    return (
        endpoint.resilience_stats(),
        tuple(
            (
                assoc.assoc_id, assoc.completions_seen, assoc.down, assoc.retired,
                assoc.signer.consecutive_failures if assoc.signer else None,
                assoc.controller and (
                    assoc.controller.next_tick, len(assoc.controller.decisions)
                ),
            )
            for assoc in endpoint._by_id.values()
        ),
        tuple(
            (candidate.path_id, candidate.failures, candidate.switches)
            for peer in sorted(endpoint._by_peer)
            for candidate in endpoint.paths.candidates(peer)
        ),
    )


def final_blocks(endpoint):
    return (
        endpoint.stats,
        dict(endpoint._drained),
        tuple(
            (assoc.assoc_id, assoc.signer.stats, assoc.verifier.stats)
            for assoc in endpoint._by_id.values()
            if assoc.signer is not None
        ),
    )


def journal(run, monkeypatch):
    """Every call's output and the state after it, each endpoint's final
    stats blocks, and how many turns returned early."""
    calls, endpoints, idle = [], {}, []
    on_packet, poll = AlphaEndpoint.on_packet, AlphaEndpoint.poll
    turn_is_idle = SignerSession.turn_is_idle

    def record(endpoint, call, out):
        endpoints[id(endpoint)] = endpoint
        calls.append((
            endpoint.name, call, list(out.replies), list(out.delivered),
            list(out.reports), list(out.failures), endpoint_state(endpoint),
        ))
        return out

    def counted(signer, completions_seen):
        verdict = turn_is_idle(signer, completions_seen)
        idle.append(verdict)
        return verdict

    with monkeypatch.context() as patch:
        patch.setattr(
            AlphaEndpoint, "on_packet",
            lambda self, data, src, now: record(
                self, ("on_packet", data, src, now), on_packet(self, data, src, now)
            ),
        )
        patch.setattr(
            AlphaEndpoint, "poll",
            lambda self, now: record(self, ("poll", now), poll(self, now)),
        )
        patch.setattr(SignerSession, "turn_is_idle", counted)
        run()
    finals = [final_blocks(endpoint) for endpoint in endpoints.values()]
    return calls, finals, sum(idle)


@pytest.mark.parametrize("name", RUNS)
def test_the_idle_return_changes_nothing(name, monkeypatch):
    calls, finals, early = journal(RUNS[name], monkeypatch)
    monkeypatch.setattr(SignerSession, "turn_is_idle", lambda self, seen: False)
    full_calls, full_finals, _ = journal(RUNS[name], monkeypatch)
    assert len(calls) == len(full_calls), name
    for index, (built, full) in enumerate(zip(calls, full_calls)):
        assert built == full, (name, index, built[:2])
    assert finals == full_finals, name
    if name in EARLY_RUNS:
        assert early > 0, name
