"""The comparison rule: 9/10 pair wins plus a gap beyond the parent's spread."""

import argparse
import json

import pytest

from perf import compare

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_spread():
    change = [p * 1.2 for p in PARENT]
    assert compare.judge(PARENT, change, "higher", 0.1)["verdict"] == "gain"
    # The same runs read as a gain when lower is better and values fall.
    assert compare.judge(PARENT, [p * 0.8 for p in PARENT], "lower", 0.1)["verdict"] == "gain"


def test_eight_wins_are_not_a_gain():
    change = [p * 1.05 for p in PARENT]
    change[0] = PARENT[0] - 1
    change[1] = PARENT[1] - 1
    row = compare.judge(PARENT, change, "higher", 0.1)
    assert row["wins"] == 8
    assert row["verdict"] == "within-bound"


def test_gap_inside_the_parent_spread_is_not_a_gain():
    change = [p + 0.01 for p in PARENT]
    row = compare.judge(PARENT, change, "higher", 0.1)
    assert row["wins"] == 10
    assert row["verdict"] == "within-bound"


def test_fewer_than_ten_pairs_cannot_claim_a_gain():
    row = compare.judge(PARENT[:9], [p * 1.2 for p in PARENT[:9]], "higher", 0.1)
    assert row["verdict"] == "within-bound"


def test_more_failures_void_a_gain():
    change = [p * 1.2 for p in PARENT]
    row = compare.judge(PARENT, change, "higher", 0.1, parent_failed=0, change_failed=1)
    assert row["verdict"] == "within-bound"


def _verdict(factor, better):
    return compare.judge(PARENT, [p * factor for p in PARENT], better, 0.1)["verdict"]


def test_regression_beyond_the_bound():
    assert _verdict(0.85, "higher") == "regression"
    assert _verdict(1.15, "lower") == "regression"
    assert _verdict(0.95, "higher") == "within-bound"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    change = [v * 0.9 for v in noisy]
    assert compare.judge(noisy, change, "higher", 0.1)["verdict"] == "unresolved"
    # Unless every change run beats every parent run.
    assert compare.judge(noisy, [200.0 + v for v in noisy], "higher", 0.1)["verdict"] == "gain"


def test_mismatched_runs_are_rejected():
    with pytest.raises(ValueError):
        compare.judge(PARENT, PARENT[:5], "higher", 0.1)


BENCHMARK = {"end_to_end": [
    {"name": "msgs_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def _write(path, value=None, correct=True, failed=0, seconds=20):
    metrics = {} if value is None else {"msgs_per_s": {"value": value, "unit": "1/s"}}
    path.write_text(json.dumps({"results": [{
        "workload": "w", "seconds": seconds, "correct": correct, "failed": failed,
        "metrics": metrics,
    }]}))
    return path


def _parents(tmp_path):
    return compare.load_runs([_write(tmp_path / f"p{i}.json", v) for i, v in enumerate(PARENT)])


def _verdicts(rows):
    return [(r["workload"], r["metric"], r["verdict"]) for r in rows]


def test_compare_reads_result_files(tmp_path):
    changes = compare.load_runs(
        [_write(tmp_path / f"c{i}.json", v * 0.8) for i, v in enumerate(PARENT)]
    )
    rows = compare.compare(_parents(tmp_path), changes, BENCHMARK)
    assert _verdicts(rows) == [("w", "msgs_per_s", "regression")]


def test_stalled_incorrect_change_is_flagged(tmp_path):
    # A stalled run has no metrics and fails its checks: never a pass.
    paths = [_write(tmp_path / f"c{i}.json", correct=False, failed=1) for i in range(10)]
    rows = compare.compare(_parents(tmp_path), compare.load_runs(paths), BENCHMARK)
    assert _verdicts(rows) == [
        ("w", "correct", "incorrect"),
        ("w", "failed", "incorrect"),
        ("w", "msgs_per_s", "incorrect"),
    ]


def test_compare_command_exits_1_on_an_incorrect_change(tmp_path):
    parents = [_write(tmp_path / f"p{i}.json", v) for i, v in enumerate(PARENT)]
    changes = [_write(tmp_path / f"c{i}.json", v * 1.2) for i, v in enumerate(PARENT)]
    changes[3] = _write(tmp_path / "c3.json", PARENT[3] * 1.2, correct=False)
    args = argparse.Namespace(parent=parents, change=changes)
    assert compare.main(args) == 1


def test_runs_of_different_lengths_are_refused(tmp_path):
    changes = compare.load_runs(
        [_write(tmp_path / f"c{i}.json", v, seconds=1) for i, v in enumerate(PARENT)]
    )
    with pytest.raises(ValueError):
        compare.compare(_parents(tmp_path), changes, BENCHMARK)
