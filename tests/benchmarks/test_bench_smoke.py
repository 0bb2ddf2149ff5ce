"""Tier-1 smoke over every benchmark module.

Each ``benchmarks/bench_*.py`` exposes a ``smoke()`` that drives its
real measurement code at toy scale (one tiny iteration, shrunken size
constants). Running them here means bench bit-rot — an import error, a
renamed helper, a harness API drift — fails the ordinary test run
instead of lying dormant until someone regenerates the paper tables.

A smoke that returns a metric dict reports simulated-time figures from
the seeded simulator, so they are exact: :data:`PINNED` holds each one,
and a behaviour change that moves a figure fails here. Update a pin
only together with the change that explains the new value.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import benchmarks

BENCH_MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(benchmarks.__path__)
    if info.name.startswith("bench_")
)

#: bench name -> the exact metric dict its ``smoke()`` returns. A bench
#: absent here must return None.
PINNED = {
    "bench_adaptive": {
        "decisions": 2,
        "delivered": 8,
        "elapsed_s": 0.15,
        "goodput_bps": 218453.333,
    },
    "bench_e2e_modes": {
        "delivered": 8,
        "elapsed_s": 0.04,
        "goodput_bps": 819200.0,
        "latency_p50_s": 0.029571,
        "latency_p99_s": 0.048751,
    },
    "bench_failover": {
        "completion": 1.0,
        "failovers": 1,
        "latency_ratio_vs_clean": 237.576,
    },
    "bench_fig6_overhead": {"wire_ratio_b2_c128": 2.945312},
    "bench_flow_scaling": {
        "grid_delivered": 12,
        "grid_goodput_msgs_per_s": 200.0,
    },
    "bench_resilience": {
        "delivered": 8,
        "elapsed_s": 0.25,
        "goodput_bps": 131072.0,
    },
    "bench_table1_hashops": {
        "alpha_m_relay_fixed_per_msg": 7.1875,
        "alpha_m_relay_mac_per_msg": 1.0,
        "alpha_m_signer_fixed_per_msg": 7.0625,
        "alpha_m_signer_mac_per_msg": 1.0,
        "alpha_m_verifier_fixed_per_msg": 5.0,
        "alpha_m_verifier_mac_per_msg": 1.0,
        "signer_fixed_per_msg": 3.0,
        "signer_mac_per_msg": 1.0,
        "verifier_fixed_per_msg": 4.0,
        "verifier_mac_per_msg": 1.0,
    },
}


def test_every_bench_module_is_covered():
    # Guards the parametrization itself: if the discovery glob silently
    # matched nothing (package layout change), fail loudly.
    assert len(BENCH_MODULES) >= 17


def test_every_pin_names_a_bench():
    # A renamed or deleted bench must not leave its pin behind unchecked.
    assert set(PINNED) <= set(BENCH_MODULES)


@pytest.mark.parametrize("name", BENCH_MODULES)
def test_bench_smoke(name):
    module = importlib.import_module(f"benchmarks.{name}")
    assert hasattr(module, "smoke"), f"{name} is missing a smoke() entry point"
    result = module.smoke()
    expected = PINNED.get(name)
    if expected is None:
        assert result is None, f"{name}.smoke() returned unpinned metrics"
    else:
        assert result == pytest.approx(expected, rel=1e-9)
