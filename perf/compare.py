"""Compare result JSONs of a parent commit and a change.

    python3 -m perf compare --parent p01.json ... p10.json --change c01.json ... c10.json

Files are given in run order and paired by position; run the pairs
alternating which side goes first. For every end-to-end metric of
every workload:

- **gain** — the change wins at least 9 of every 10 pairs (ties count for
  neither side), its median beats the parent's by more than the parent's
  interquartile distance, at least ``MIN_PAIRS`` pairs were run, and no
  more operations failed than at the parent;
- **unresolved** — the run-to-run spread of either side is wider than the
  metric's bound, unless every change run beats every parent run;
- **regression** — the change's median is worse than the parent's by more
  than the bound;
- **within-bound** — otherwise.

A workload is also reported **incorrect** when any change run failed
its correctness checks, failed more operations than the parent runs
did, or lacks the workload or a metric the parent runs have (a stalled
run has no metrics). Directions and bounds come from BENCHMARK.json.
Exits 1 when anything regressed or is incorrect, and 2 when the runs
measured different lengths.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from perf import stats

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def judge(parent: list[float], change: list[float], better: str, bound: float,
          parent_failed: int = 0, change_failed: int = 0) -> dict:
    """Verdict for one metric of one workload over paired runs."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of parent and change runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, p_med, p3 = stats.quartiles(parent)
    c1, c_med, c3 = stats.quartiles(change)
    gap = sign * (c_med - p_med)
    spread = max(stats.relative_spread(parent), stats.relative_spread(change))
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if (
        len(parent) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(parent)
        and gap > p3 - p1
        and change_failed <= parent_failed
    ):
        verdict = "gain"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    elif -gap > bound * abs(p_med):
        verdict = "regression"
    else:
        verdict = "within-bound"
    return {
        "verdict": verdict,
        "wins": wins,
        "pairs": len(parent),
        "parent": (p1, p_med, p3),
        "change": (c1, c_med, c3),
    }


def load_runs(paths: list[Path]) -> list[dict[str, dict]]:
    """Per file: workload name -> its result (metrics, failed)."""
    runs = []
    for path in paths:
        data = json.loads(path.read_text())
        results = data.get("results", [data])
        runs.append({r["workload"]: r for r in results})
    return runs


def _incorrect(workload: str, metric: str, reason: str) -> dict:
    return {"workload": workload, "metric": metric, "verdict": "incorrect", "reason": reason}


def compare(parent_runs: list[dict], change_runs: list[dict], benchmark: dict) -> list[dict]:
    rows = []
    workloads = sorted(set.intersection(*(set(run) for run in parent_runs)))
    for workload in workloads:
        parents = [run[workload] for run in parent_runs]
        if not all(workload in run for run in change_runs):
            rows.append(_incorrect(workload, "-", "missing from a change run"))
            continue
        changes = [run[workload] for run in change_runs]
        if len({r.get("seconds") for r in parents + changes}) > 1:
            raise ValueError(f"{workload}: parent and change runs measured different lengths")
        wrong = sum(1 for r in changes if not r["correct"])
        if wrong:
            rows.append(_incorrect(workload, "correct", f"{wrong} change runs failed their checks"))
        parent_failed = sum(r["failed"] for r in parents)
        change_failed = sum(r["failed"] for r in changes)
        if change_failed > parent_failed:
            rows.append(_incorrect(
                workload, "failed", f"{change_failed} failed operations, parent {parent_failed}"
            ))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            if not all(name in r["metrics"] for r in parents):
                continue
            if not all(name in r["metrics"] for r in changes):
                rows.append(_incorrect(workload, name, "missing from a change run"))
                continue
            row = judge(
                [r["metrics"][name]["value"] for r in parents],
                [r["metrics"][name]["value"] for r in changes],
                metric["better"],
                metric["bound"],
                parent_failed=parent_failed,
                change_failed=change_failed,
            )
            rows.append({"workload": workload, "metric": name, **row})
    return rows


def main(args) -> int:
    if len(args.parent) != len(args.change):
        print("perf compare: give as many parent runs as change runs", file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    try:
        rows = compare(load_runs(args.parent), load_runs(args.change), benchmark)
    except ValueError as exc:
        print(f"perf compare: {exc}", file=sys.stderr)
        return 2
    if len(args.parent) < MIN_PAIRS:
        print(f"note: {len(args.parent)} pairs; a gain needs at least {MIN_PAIRS}")
    for row in rows:
        if row["verdict"] == "incorrect":
            print(f"{row['workload']:18s} {row['metric']:16s} incorrect: {row['reason']}")
            continue
        p1, p_med, p3 = row["parent"]
        c1, c_med, c3 = row["change"]
        print(
            f"{row['workload']:18s} {row['metric']:16s} "
            f"parent {p_med:12.6g} [{p1:.6g}, {p3:.6g}]  "
            f"change {c_med:12.6g} [{c1:.6g}, {c3:.6g}]  "
            f"wins {row['wins']}/{row['pairs']}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] in ("regression", "incorrect") for row in rows) else 0
