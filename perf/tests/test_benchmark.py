"""End-to-end checks of the benchmark command itself."""

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from perf import bench
from perf.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _run(args, cwd=ROOT, env=None, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "perf", "run", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perf"]
    assert spec["run_seconds"] == bench.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == bench.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_pass_of_all_four_workloads(tmp_path, trace):
    start = time.monotonic()
    proc = _run(["--smoke", "--trace", trace, "--json", str(tmp_path / "result.json")])
    assert time.monotonic() - start < 30
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    expected = bench.PER_LAYER if trace == "1" else bench.END_TO_END
    for workload in WORKLOADS:
        for name, (unit, _) in expected.items():
            assert final["metrics"][f"{workload}:{name}"]["unit"] == unit
            assert f"  {name} " in proc.stdout


def test_single_workload_prints_the_contract_line(tmp_path):
    proc = _run([
        "--workload", "relay-forge-flood", "--seed", "3", "--smoke", "--trace", "0",
        "--json", str(tmp_path / "r.json"),
    ])
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in final["metrics"].values())


def test_run_length_is_fixed():
    proc = _run(["--workload", "base-64B-3hop", "--seconds", "1"])
    assert proc.returncode == 2
    assert "{" not in proc.stdout


def test_fails_without_the_library(tmp_path):
    shutil.copytree(
        ROOT / "perf", tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run(
        ["--workload", "base-64B-3hop", "--seed", "1", "--smoke", "--trace", "0"],
        cwd=tmp_path, env=env,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _count_fields(raw):
    return (
        raw["tallies"], raw["calls"], raw["associations_end"], raw["buffered_bytes_max"],
        raw.get("queue_depth_max"), raw["attempted"], raw["failed"],
        [(s["messages"], s["packets"]) for s in raw["slices"]],
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly_at_one_seed(workload):
    first = bench.run_phase(workload, 5, "traced", 0.0, window_scale=0.125)
    second = bench.run_phase(workload, 5, "traced", 0.0, window_scale=0.125)
    assert not first["errors"]
    assert _count_fields(first) == _count_fields(second)
    assert Counter(first["tallies"])["messages"] >= WORKLOADS[workload].trace_messages // 8
