"""Percentiles, quartiles and the slice arithmetic behind every metric."""

import statistics

import pytest

from perf import bench, stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1, 2], 0)


def test_beyond_counts_the_support_of_a_percentile():
    values = list(range(1, 1001))
    p99 = stats.percentile(values, 99)
    assert stats.beyond(values, p99) == 10


def test_quartiles_match_the_statistics_module():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = stats.quartiles(values)
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / q2)


def _slice(messages, cpu_s, host_us, p50=600.0, p90=700.0):
    cpu_ns = cpu_s * 1e9
    return {"messages": messages, "packets": 3 * messages, "cpu_ns": cpu_ns,
            "ref_ns": cpu_ns * stats.reference_scale(host_us),
            "samples": messages, "p50_us": p50, "p90_us": p90}


def test_rate_pools_slices_at_reference_speed():
    slices = [_slice(1000, 1.0, stats.REF_SHA1_US), _slice(0, 1.0, stats.REF_SHA1_US)]
    assert bench._rate(slices, "messages") == pytest.approx(500.0)
    # A host twice as slow as the reference does reference-speed work
    # at twice its own rate.
    slow = [_slice(500, 1.0, 2 * stats.REF_SHA1_US) for _ in range(3)]
    assert bench._rate(slow, "messages") == pytest.approx(1000.0)
    assert bench._rate(slow, "packets") == pytest.approx(3000.0)


def test_steady_slices_leave_out_contended_ones():
    slices = [_slice(1000, 1.0, stats.REF_SHA1_US) for _ in range(8)]
    slices += [_slice(1000, 1.0, 2 * stats.REF_SHA1_US) for _ in range(2)]
    steady = bench.steady_slices(slices)
    assert len(steady) == 8
    assert all(s["ref_ns"] == s["cpu_ns"] for s in steady)


def test_latency_summary_of_one_slice():
    raw_ns = [1000 * i for i in range(1, 1001)]  # 1..1000 µs
    reference_us = [ns / 2000.0 for ns in raw_ns]  # a host twice as slow
    summary = bench._latency_summary(raw_ns, reference_us)
    assert summary["samples"] == 1000
    assert summary["p50_us_raw"] == pytest.approx(500.0)
    assert summary["p90_us_raw"] == pytest.approx(900.0)
    assert summary["p99_us_raw"] == pytest.approx(990.0)
    assert summary["p50_us"] == pytest.approx(250.0)
    assert summary["p90_us"] == pytest.approx(450.0)
    assert summary["beyond_p90"] == 100
    assert bench._latency_summary([], []) == {"samples": 0}


def test_end_to_end_metrics_from_a_timed_phase():
    timed = {
        "slices": [
            _slice(1000, 1.0, stats.REF_SHA1_US, p50=600.0 + i, p90=700.0 + i)
            for i in range(3)
        ] + [_slice(0, 1.0, stats.REF_SHA1_US) | {"samples": 0}],
        "delivered": 2999,
        "offered": 3000,
        "setup": [{"raw_s": s, "host_sha1_us": 2 * stats.REF_SHA1_US} for s in (0.02, 0.04, 0.03)],
        "peak_rss_mb": 30.0,
    }
    metrics = bench.end_to_end_metrics(timed)
    assert set(metrics) == set(bench.END_TO_END)
    assert metrics["msgs_per_s"] == pytest.approx(750.0)  # 3000 messages in 4 s
    assert metrics["relay_pkts_per_s"] == pytest.approx(2250.0)
    assert metrics["lat_p50_us"] == pytest.approx(601.0)  # slices without samples are skipped
    assert metrics["lat_p90_us"] == pytest.approx(701.0)
    assert metrics["delivered_ratio"] == pytest.approx(2999 / 3000)
    assert metrics["setup_s"] == pytest.approx(0.015)  # median 0.03 s at half speed
