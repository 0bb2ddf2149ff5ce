"""Wedge-seed regression suite (ISSUE: storm-proof retransmission).

Every corpus case reproduces, on pre-damper/pre-escape-hatch code, a
mixed-loss pathology: an exchange pinned at max RTO burning its whole
retry budget on blind batch resends, or a nack storm whose instant
retransmits starve the timeout path. These tests pin the fix:

- every case reaches a terminal verdict for every message within the
  step budget (completes *or* fails observably — never wedges);
- the nack-storm damper bounds nack-provoked retransmits and its
  suppression counter shows it engaging;
- no exchange sits pinned at ``rto_max_s`` for more than the escape
  hatch's K consecutive timeouts;
- terminal failures carry the expected reasons (``rto-escape`` from
  the escape hatch, ``retry-cap`` from the retry budget).
"""

from __future__ import annotations

import pytest

from tests.regression.corpus import (
    CASES,
    EVENT_BUDGET,
    MESSAGES,
    NACK_RETRANSMIT_BOUND,
    TIME_BUDGET_S,
    WedgeCase,
)
from tests.regression.harness import run_wedge

#: The escape hatch's K: consecutive max-RTO timeouts before probing
#: (``repro.core.signer.RTO_PROBE_AFTER``).
PROBE_AFTER_K = 2


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_wedge_seed_terminates_within_budget(case: WedgeCase) -> None:
    run = run_wedge(
        seed=case.seed,
        mode=case.mode,
        batch=case.batch,
        hops=case.hops,
        messages=MESSAGES,
        event_budget=EVENT_BUDGET,
        time_budget_s=TIME_BUDGET_S,
    )
    assert run.done, (
        f"{case.name}: only partial terminal verdicts after "
        f"{run.events} events / {run.sim_time:.0f}s — the exchange "
        "wedged again"
    )
    assert run.events <= EVENT_BUDGET
    assert run.sim_time <= TIME_BUDGET_S
    # Acceptance: no exchange pinned at max RTO beyond K consecutive
    # timeouts — the escape hatch must intervene at exactly K.
    assert run.max_rto_streak_peak <= PROBE_AFTER_K, (
        f"{case.name}: an exchange sat {run.max_rto_streak_peak} "
        f"consecutive timeouts at rto_max_s (escape hatch is K="
        f"{PROBE_AFTER_K})"
    )
    # Terminal failures (if any) come from the defenses, not silence.
    assert run.failure_reasons <= {"rto-escape", "retry-cap"}, (
        f"unexpected failure reasons: {run.failure_reasons}"
    )


@pytest.mark.parametrize(
    "case", [c for c in CASES if c.storm], ids=lambda c: c.name
)
def test_storm_seed_nacks_are_damped(case: WedgeCase) -> None:
    run = run_wedge(
        seed=case.seed,
        mode=case.mode,
        batch=case.batch,
        hops=case.hops,
        messages=MESSAGES,
        event_budget=EVENT_BUDGET,
        time_budget_s=TIME_BUDGET_S,
    )
    assert run.done
    # The damper bounds nack-provoked retransmits (pre-fix: 106-344).
    nack_rtx = run.signer_stats.retransmits_nack
    assert nack_rtx <= NACK_RETRANSMIT_BOUND, (
        f"{case.name}: {nack_rtx} nack-provoked retransmits — the "
        "storm damper is not bounding the loop"
    )
    if case.expect_suppressed:
        # The counter assertion: suppression visibly engaged on one
        # side of the damper (signer token bucket or verifier
        # duplicate-nack suppression).
        suppressed = (
            run.signer_stats.nack_suppressed
            + run.verifier_stats.nack_suppressed
        )
        assert suppressed > 0, (
            f"{case.name}: storm finished but no nack was ever "
            "suppressed — the damper never engaged"
        )


def test_escape_hatch_fires_on_relay_poisoned_wedge() -> None:
    """The zero-nack 3-hop wedges are broken by rto-escape failures."""
    case = next(c for c in CASES if c.name == "base-3hop-s6")
    run = run_wedge(
        seed=case.seed, mode=case.mode, batch=case.batch, hops=case.hops,
        messages=MESSAGES, event_budget=EVENT_BUDGET,
        time_budget_s=TIME_BUDGET_S,
    )
    assert run.done
    assert run.signer_stats.escape_probes > 0
    assert "rto-escape" in run.failure_reasons
