"""Table 5 — SHA-1 delay on wireless-router CPUs.

The original table is three platforms × two digest sizes. We regenerate
it from the device profiles (which are calibrated to those published
numbers — the assertion closes the loop), measure the same two points on
this host, and derive the implied ALPHA-C verification ceilings the
paper computes from them in Section 4.1.2.
"""

import time

import pytest

from benchmarks.conftest import format_table
from repro import analysis
from repro.crypto.hashes import get_hash
from repro.devices import get_profile, host_calibrated_profile

PLATFORMS = ("ar2315", "bcm5365", "geode-lx800")


def test_table5_regeneration(emit, benchmark):
    host = host_calibrated_profile(samples=500)

    rows = []
    for name in PLATFORMS:
        profile = get_profile(name)
        paper = analysis.TABLE5_PAPER_MS[name]
        rows.append(
            [
                name,
                f"{profile.hash_time(20) * 1e3:.3f}",
                paper[20],
                f"{profile.hash_time(1024) * 1e3:.3f}",
                paper[1024],
            ]
        )
    rows.append(
        [
            "this host",
            f"{host.hash_time(20) * 1e3:.5f}",
            "-",
            f"{host.hash_time(1024) * 1e3:.5f}",
            "-",
        ]
    )
    table = format_table(
        ["platform", "20 B digest (ms)", "paper", "1024 B digest (ms)", "paper"],
        rows,
    )

    ceilings = [
        [
            name,
            f"{analysis.alpha_c_throughput_bound(get_profile(name)) / 1e6:.1f}",
        ]
        for name in PLATFORMS
    ] + [["this host", f"{analysis.alpha_c_throughput_bound(host) / 1e6:.1f}"]]
    ceiling_table = format_table(
        ["platform", "ALPHA-C verify ceiling (Mbit/s, 1024 B, 20 presigs/S1)"],
        ceilings,
    )
    emit(
        "table5_sha1_delay",
        table + "\n\nImplied Section 4.1.2 throughput bounds "
        "(paper: ~20 Mbit/s commodity, ~120 Mbit/s Geode):\n" + ceiling_table,
    )

    # Profiles reproduce the paper's numbers exactly (they are the
    # calibration source — this guards against regressions).
    for name in PLATFORMS:
        profile = get_profile(name)
        paper = analysis.TABLE5_PAPER_MS[name]
        assert profile.hash_time(20) == pytest.approx(paper[20] * 1e-3, rel=1e-9)
        assert profile.hash_time(1024) == pytest.approx(paper[1024] * 1e-3, rel=1e-9)
    # Host shape: bigger inputs cost more; host is faster than the 2008
    # embedded platforms.
    assert host.hash_time(1024) > host.hash_time(20)
    assert host.hash_time(20) < get_profile("geode-lx800").hash_time(20)

    # Benchmark: the 1024-byte digest, the quantity Table 5's large
    # column measures.
    sha1 = get_hash("sha1")
    payload = b"\xCD" * 1024
    benchmark(sha1.digest_uncounted, payload)

def smoke():
    """Tier-1 smoke: profiles and a tiny host calibration evaluate."""
    profile = get_profile("ar2315")
    assert analysis.alpha_c_throughput_bound(profile) > 0
    host = host_calibrated_profile(samples=10)
    assert host.hash_time(20) > 0
