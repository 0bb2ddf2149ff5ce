"""``python3 -m perf run|compare`` — see perf/README.md."""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from perf.bench import RUN_SECONDS


def _run(args: argparse.Namespace) -> int:
    try:
        import repro  # noqa: F401
    except ImportError:
        print(
            "perf: cannot import the repro package; run from the repository root",
            file=sys.stderr,
        )
        return 2
    from perf import bench
    from perf.workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(
            f"perf: unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.smoke:
        seconds, window_scale = bench.SMOKE_SECONDS, bench.SMOKE_WINDOW_SCALE
    else:
        seconds, window_scale = bench.RUN_SECONDS, 1.0
    deadline = time.monotonic() + bench.COMMAND_BUDGET_S * len(names)
    results = []
    try:
        for name in names:
            result = bench.run_workload(
                name, args.seed, seconds, bool(args.trace), window_scale, deadline
            )
            bench.print_result(result)
            results.append(result)
    except bench.PhaseFailed as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1
    mode = "trace" if args.trace else "e2e"
    detail = args.json or bench.OUT_DIR / f"{args.workload or 'all'}-seed{args.seed}-{mode}.json"
    detail.parent.mkdir(parents=True, exist_ok=True)
    detail.write_text(json.dumps({"seed": args.seed, "mode": mode, "results": results}, indent=1))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}:{name}": metric
            for r in results for name, metric in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if all(r["correct"] for r in results) else 1


def _worker(args: argparse.Namespace) -> int:
    from perf import bench

    print(json.dumps(bench.run_phase(
        args.workload, args.seed, args.phase, args.seconds, args.window_scale
    )))
    return 0


def _compare(args: argparse.Namespace) -> int:
    from perf import compare

    return compare.main(args)


def _hypotheses(args: argparse.Namespace) -> int:
    from perf import hypotheses

    hypotheses.main(args.workload, args.seed)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", help="one workload (default: all four)")
    run.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    # The run length is fixed (bench.RUN_SECONDS); ``--seconds`` is
    # accepted only with that value, as BENCHMARK.json's runner passes it.
    run.add_argument("--seconds", type=int, choices=(RUN_SECONDS,),
                     help=f"measured seconds of an end-to-end run: always {RUN_SECONDS}")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="report per-layer metrics from a traced run instead")
    run.add_argument("--json", type=Path, help="write the detailed result here")
    run.add_argument("--smoke", action="store_true",
                     help="1 s runs and 1/8 trace windows, to check the benchmark works")
    run.set_defaults(handler=_run)

    worker = commands.add_parser("worker", help="one phase in this process (internal)")
    worker.add_argument("--workload", required=True)
    worker.add_argument("--seed", type=int, required=True)
    worker.add_argument("--phase", required=True, choices=("timed", "window", "traced", "observed"))
    worker.add_argument("--seconds", type=float, required=True)
    worker.add_argument("--window-scale", type=float, default=1.0)
    worker.set_defaults(handler=_worker)

    compare = commands.add_parser("compare", help="compare parent and change runs")
    compare.add_argument("--parent", nargs="+", type=Path, required=True,
                         help="parent result JSONs, in run order")
    compare.add_argument("--change", nargs="+", type=Path, required=True,
                         help="change result JSONs, in run order")
    compare.set_defaults(handler=_compare)

    hypotheses = commands.add_parser(
        "hypotheses", help="share of traced time per span, private hot spots included",
    )
    hypotheses.add_argument("--workload", default="base-64B-3hop")
    hypotheses.add_argument("--seed", type=int, default=1)
    hypotheses.set_defaults(handler=_hypotheses)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
