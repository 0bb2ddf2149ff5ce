"""Benchmark phases and the ``run`` command that assembles their metrics.

``run`` starts one single-threaded worker subprocess per phase, one at a
time, and turns the phases' raw JSON into metrics:

- ``timed`` (``--trace 0``): set-up time, then ``RUN_SECONDS`` of
  closed-loop traffic in slices; the end-to-end metrics.
- ``window``, ``traced``, ``observed`` (``--trace 1``): the same fixed
  message window untraced, traced and with observability on; the
  per-layer metrics. The window is fixed so its counts repeat exactly.

Every timing is CPU time rescaled to the reference host
(``stats.REF_SHA1_US``) by the calibration run just before it.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from array import array
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from perf import stats

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Wall seconds an end-to-end run measures; BENCHMARK.json ``run_seconds``.
#: Fixed, so runs of two commits always measure the same length.
RUN_SECONDS = 20
#: Run length and trace-window scale of ``run --smoke``.
SMOKE_SECONDS = 1.0
SMOKE_WINDOW_SCALE = 0.125
#: Equal slices a run is split into. Slices of 200 ms in a 20 s run keep
#: a burst of contention on a shared host inside a few slices.
SLICES = 100
#: Wall seconds between two calibrations inside a slice.
CHUNK_S = 0.05
#: SHA-1(20 B) iterations of the calibration before each chunk.
CHUNK_ITERATIONS = 1000
#: A slice is steady when its host ran within this factor of the run's
#: lower-quartile speed (see :func:`steady_slices`).
STEADY_FACTOR = 1.25
#: Samples a slice needs for its latency percentiles to count.
MIN_LATENCY_SAMPLES = 100
#: ``peak_rss_mb`` is read once a timed run has measured this many
#: messages: a relay keeps state per rekey, so a later reading would
#: depend on how much work a busy host got through.
RSS_MESSAGES = 8192
#: Fresh stack builds timed for ``setup_s``.
SETUP_BUILDS = 7
#: The command must end within this many seconds, builds included.
COMMAND_BUDGET_S = 170.0

#: name -> (unit, direction); must match BENCHMARK.json.
END_TO_END = {
    "msgs_per_s": ("1/s", "higher"),
    "relay_pkts_per_s": ("1/s", "higher"),
    "lat_p50_us": ("us", "lower"),
    "lat_p90_us": ("us", "lower"),
    "delivered_ratio": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, direction); must match BENCHMARK.json.
PER_LAYER = {
    "relay.self_hu_per_pkt": ("hu/pkt", "lower"),
    "relay.calls_per_msg": ("count/msg", "lower"),
    "relay.drop_ratio": ("ratio", "higher"),
    "relay.associations_end": ("count", "lower"),
    "relay.buffered_bytes_max": ("B", "lower"),
    "hashchain.self_hu_per_msg": ("hu/msg", "lower"),
    "hashchain.verify_calls_per_msg": ("count/msg", "lower"),
    "crypto.self_hu_per_msg": ("hu/msg", "lower"),
    "crypto.hash_ops_per_msg": ("count/msg", "lower"),
    "crypto.mac_ops_per_msg": ("count/msg", "lower"),
    "crypto.mac_bytes_per_msg": ("B/msg", "lower"),
    "packets.decode_hu_per_pkt": ("hu/pkt", "lower"),
    "packets.encode_hu_per_pkt": ("hu/pkt", "lower"),
    "wire.bytes_per_msg": ("B/msg", "lower"),
    "merkle.self_hu_per_msg": ("hu/msg", "lower"),
    "acktree.self_hu_per_msg": ("hu/msg", "lower"),
    "signer.self_hu_per_msg": ("hu/msg", "lower"),
    "verifier.self_hu_per_msg": ("hu/msg", "lower"),
    "endpoint.self_hu_per_msg": ("hu/msg", "lower"),
    "endpoint.calls_per_msg": ("count/msg", "lower"),
    "bootstrap.self_hu_per_msg": ("hu/msg", "lower"),
    "bootstrap.handshakes": ("count", "lower"),
    "resilience.retransmits_per_msg": ("count/msg", "lower"),
    "resilience.timeouts_per_msg": ("count/msg", "lower"),
    "resilience.nacks_suppressed": ("count", "lower"),
    "resilience.false_failures": ("count", "lower"),
    "pump.self_hu_per_msg": ("hu/msg", "lower"),
    "pump.queue_wait_p50_us": ("us", "lower"),
    "pump.queue_depth_max": ("count", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "higher"),
    "obs.overhead_ratio": ("ratio", "higher"),
}

#: Layers whose self time is reported per message (``<layer>.self_hu_per_msg``).
_PER_MSG_LAYERS = (
    "hashchain", "crypto", "merkle", "acktree", "signer", "verifier",
    "endpoint", "bootstrap", "pump",
)

TRACE_PHASES = ("window", "traced", "observed")


class PhaseFailed(RuntimeError):
    """A worker subprocess crashed, timed out or printed no result."""


# -- worker side --------------------------------------------------------------


def _setup(workload, seed: int, clock, counter, observe: bool):
    """The driver a phase runs: a closed loop, or the flood replay."""
    from perf.workloads import ClosedLoop, FloodReplay, build_stack, record_flood_trace

    if workload.flood:
        return FloodReplay(record_flood_trace(workload, seed), counter, clock, observe)
    loop = ClosedLoop(build_stack(workload, seed, clock, counter, observe), workload, seed, clock)
    loop.refill()
    return loop


def _timed_builds(workload, seed: int) -> list[dict]:
    """``SETUP_BUILDS`` fresh stacks, each timed between two calibrations."""
    from perf.workloads import BenchClock, build_stack
    from repro.crypto.hashes import OpCounter

    builds = []
    host = stats.sha1_us()
    for _ in range(SETUP_BUILDS):
        start = stats.cpu_ns()
        build_stack(workload, seed, BenchClock(), OpCounter())
        raw_s = (stats.cpu_ns() - start) / 1e9
        after = stats.sha1_us()
        builds.append({"raw_s": raw_s, "host_sha1_us": (host + after) / 2})
        host = after
    return builds


def measure(driver, clock, slices: int, seconds: float | None = None,
            messages: int | None = None, before_slice=None) -> list[dict]:
    """Run ``driver`` for ``seconds``, or until ``messages``, in equal slices.

    A slice runs in chunks of ``CHUNK_S`` wall seconds, each after an
    untimed ``CHUNK_ITERATIONS`` calibration that rescales that chunk's
    CPU time and latencies to the reference host: a shared host changes
    speed faster than once per slice. Run length is wall time, so a run
    on a busy host still ends on time; what is measured is CPU time.
    The clock is paused while calibrations, ``before_slice`` and the
    slice summary run, so no latency includes them.
    """
    records = []
    chunk_ns = int(CHUNK_S * 1e9)
    for index in range(slices):
        clock.pause()
        if before_slice is not None:
            before_slice()
        clock.resume()
        driver.latencies = array("q")
        scaled = array("d")
        count, judged = driver.count, driver.judged
        if seconds is not None:
            slice_end = time.perf_counter_ns() + int(seconds * 1e9 / slices)
        else:
            target = messages * (index + 1) // slices
        cpu = ref = 0.0
        while True:
            clock.pause()
            scale = stats.reference_scale(stats.sha1_us(CHUNK_ITERATIONS))
            clock.resume()
            first = len(driver.latencies)
            start = clock.now()
            chunk_end = time.perf_counter_ns() + chunk_ns
            if seconds is not None:
                chunk_end = min(chunk_end, slice_end)
                while time.perf_counter_ns() < chunk_end:
                    driver.work()
                done = chunk_end == slice_end
            else:
                while driver.count < target and time.perf_counter_ns() < chunk_end:
                    driver.work()
                done = driver.count >= target
            busy = clock.now() - start
            cpu += busy
            ref += busy * scale
            scaled.extend(ns * scale / 1000.0 for ns in driver.latencies[first:])
            if done:
                break
        clock.pause()
        record = {
            "cpu_ns": cpu,
            "ref_ns": ref,
            "messages": driver.count - count,
            "packets": driver.judged - judged,
        }
        record.update(_latency_summary(driver.latencies, scaled))
        records.append(record)
        clock.resume()
    return records


def _latency_summary(raw_ns, reference_us) -> dict:
    """One slice's latency percentiles: raw, and at reference speed."""
    if not raw_ns:
        return {"samples": 0}
    p90 = stats.percentile(reference_us, 90)
    return {
        "samples": len(raw_ns),
        "beyond_p90": stats.beyond(reference_us, p90),
        "p50_us": stats.percentile(reference_us, 50),
        "p90_us": p90,
        "p50_us_raw": stats.percentile(raw_ns, 50) / 1000.0,
        "p90_us_raw": stats.percentile(raw_ns, 90) / 1000.0,
        "p99_us_raw": stats.percentile(raw_ns, 99) / 1000.0,
    }


def _tallies(driver, counter) -> Counter:
    tallies = Counter(driver.tallies())
    tallies.update(hash_ops=counter.hash_ops, mac_ops=counter.mac_ops, mac_bytes=counter.mac_bytes)
    return tallies


def run_phase(workload_name: str, seed: int, phase: str, seconds: float,
              window_scale: float = 1.0) -> dict:
    """One phase of one workload, in this process. Returns its raw JSON."""
    from perf.tracing import SpanRecorder, installed
    from perf.workloads import WORKLOADS, BenchClock, Stall
    from repro.crypto.hashes import OpCounter

    workload = WORKLOADS[workload_name]
    result: dict = {"workload": workload.name, "seed": seed, "phase": phase}
    if phase == "timed":
        result["setup"] = _timed_builds(workload, seed)
    clock = BenchClock()
    counter = OpCounter()
    driver = _setup(workload, seed, clock, counter, observe=phase == "observed")
    traced = phase == "traced"
    marks: list[int] = []
    samples = {"buffered_bytes_max": 0}
    # The pump, or the flood replay that stands in for it.
    pump = getattr(driver, "pump", driver)
    recorder = SpanRecorder(pump) if traced else None
    if traced:
        pump.waits = []

    def before_slice() -> None:
        samples["buffered_bytes_max"] = max(samples["buffered_bytes_max"], driver.buffered_bytes)
        if recorder is not None:
            marks.append(len(recorder))
        if "peak_rss_mb" not in result and driver.count >= RSS_MESSAGES:
            result["peak_rss_mb"] = _peak_rss_mb()

    errors: Counter = Counter()
    before = _tallies(driver, counter)
    records: list[dict] = []
    try:
        with installed(recorder) if traced else nullcontext():
            if phase == "timed":
                records = measure(driver, clock, SLICES, seconds=seconds, before_slice=before_slice)
            else:
                window = max(SLICES, int(workload.trace_messages * window_scale))
                records = measure(driver, clock, SLICES, messages=window, before_slice=before_slice)
            before_slice()
        result.setdefault("peak_rss_mb", _peak_rss_mb())
        result["tallies"] = dict(_tallies(driver, counter) - before)
        result["associations_end"] = driver.associations
        result.update(samples)
        if hasattr(driver, "drain"):
            driver.drain()
    except Stall as exc:
        errors[f"stall:{exc}"] += 1
        result.setdefault("peak_rss_mb", _peak_rss_mb())
    errors.update(driver.errors)
    result["errors"] = dict(errors)
    result["attempted"] = driver.attempted
    result["offered"] = driver.offered
    result["delivered"] = driver.delivered
    result["failed"] = sum(errors.values())
    result["slices"] = records
    if traced and records:
        result.update(_trace_summary(recorder, records, marks, pump))
        recorder.write_jsonl(OUT_DIR / f"trace-{workload.name}.jsonl")
    return result


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _trace_summary(recorder, records: list[dict], marks: list[int], pump) -> dict:
    """Self time per layer in hash units, span counts and coverage."""
    from perf.tracing import layer_of

    layer_hu: Counter = Counter()
    name_hu: Counter = Counter()
    self_ns_total = 0
    for record, lo, hi in zip(records, marks, marks[1:]):
        if not record["cpu_ns"]:
            continue
        # Hash units: reference-host µs over the reference SHA-1 µs.
        to_hu = record["ref_ns"] / record["cpu_ns"] / 1000.0 / stats.REF_SHA1_US
        for name, ns in recorder.self_ns_by_name(lo, hi).items():
            name_hu[name] += ns * to_hu
            layer_hu[layer_of(name)] += ns * to_hu
            self_ns_total += ns
    cpu_total = sum(record["cpu_ns"] for record in records)
    summary = {
        "layer_hu": dict(layer_hu),
        "name_hu": dict(name_hu),
        "calls": dict(recorder.calls(marks[0], marks[-1])),
        "coverage": self_ns_total / cpu_total if cpu_total else 0.0,
        "spans": marks[-1] - marks[0],
    }
    # Waits of the whole window, at the window's mean reference scale.
    scale = sum(r["ref_ns"] for r in records) / cpu_total
    summary["queue_wait_p50_us"] = stats.percentile(pump.waits, 50) / 1000.0 * scale
    summary["queue_depth_max"] = pump.queue_depth_max
    return summary


# -- metrics ------------------------------------------------------------------


def _rate(records: list[dict], key: str) -> float:
    """``key`` per reference-host second over ``records``.

    Pooled rather than a median of per-slice rates: a pump turn can
    deliver a whole batch, so one slice's message count is lumpy.
    """
    return sum(r[key] for r in records) * 1e9 / sum(r["ref_ns"] for r in records)


def steady_slices(records: list[dict]) -> list[dict]:
    """Slices in which the host ran near its usual speed.

    A slice counts when its µs per SHA-1 is within ``STEADY_FACTOR`` of
    the run's lower quartile. On a shared host a neighbour can slow the
    host for seconds, and the SHA-1 calibration rescales that
    contention only to within about ±7% (in either direction, by
    workload), so those slices are left out rather than trusted.
    """
    timed = [r for r in records if r["ref_ns"]]
    hosts = [r["cpu_ns"] / r["ref_ns"] for r in timed]
    lower = stats.quartiles(hosts)[0]
    return [r for r, host in zip(timed, hosts) if host <= STEADY_FACTOR * lower]


def end_to_end_metrics(timed: dict) -> dict[str, float]:
    slices = steady_slices(timed["slices"])
    # A slice's p90 needs ten samples beyond it; a run too short for
    # that (a smoke run) falls back to every slice that has samples.
    voting = [r for r in slices if r["samples"] >= MIN_LATENCY_SAMPLES]
    voting = voting or [r for r in slices if r["samples"]]
    return {
        "msgs_per_s": _rate(slices, "messages"),
        "relay_pkts_per_s": _rate(slices, "packets"),
        "lat_p50_us": stats.median([r["p50_us"] for r in voting]),
        "lat_p90_us": stats.median([r["p90_us"] for r in voting]),
        "delivered_ratio": timed["delivered"] / timed["offered"],
        "setup_s": stats.median([
            b["raw_s"] * stats.reference_scale(b["host_sha1_us"]) for b in timed["setup"]
        ]),
        "peak_rss_mb": timed["peak_rss_mb"],
    }


def per_layer_metrics(window: dict, traced: dict, observed: dict) -> dict[str, float]:
    tallies = Counter(traced["tallies"])
    calls = Counter(traced["calls"])
    layer_hu = Counter(traced["layer_hu"])
    name_hu = Counter(traced["name_hu"])
    msgs = tallies["messages"] or 1
    relay_calls = calls["relay.handle"]
    decodes = calls["packets.decode"]
    encodes = calls["packets.encode"]
    metrics = {
        "relay.self_hu_per_pkt": layer_hu["relay"] / relay_calls if relay_calls else 0.0,
        "relay.calls_per_msg": tallies["relay_calls"] / msgs,
        "relay.drop_ratio": (
            tallies["relay_drops"] / tallies["relay_calls"] if tallies["relay_calls"] else 0.0
        ),
        "relay.associations_end": traced["associations_end"],
        "relay.buffered_bytes_max": traced["buffered_bytes_max"],
        "hashchain.verify_calls_per_msg": calls["hashchain.verify"] / msgs,
        "crypto.hash_ops_per_msg": tallies["hash_ops"] / msgs,
        "crypto.mac_ops_per_msg": tallies["mac_ops"] / msgs,
        "crypto.mac_bytes_per_msg": tallies["mac_bytes"] / msgs,
        "packets.decode_hu_per_pkt": name_hu["packets.decode"] / decodes if decodes else 0.0,
        "packets.encode_hu_per_pkt": name_hu["packets.encode"] / encodes if encodes else 0.0,
        "wire.bytes_per_msg": tallies["wire_bytes"] / msgs,
        "endpoint.calls_per_msg": sum(
            n for name, n in calls.items() if name.startswith("endpoint.")
        ) / msgs,
        "bootstrap.handshakes": calls["bootstrap.chains"] // 2,
        "resilience.retransmits_per_msg": tallies["retransmits"] / msgs,
        "resilience.timeouts_per_msg": tallies["timeouts"] / msgs,
        "resilience.nacks_suppressed": tallies["nacks_suppressed"],
        "resilience.false_failures": tallies["false_failures"],
        "pump.queue_wait_p50_us": traced["queue_wait_p50_us"],
        "pump.queue_depth_max": traced["queue_depth_max"],
        "trace.coverage": traced["coverage"],
    }
    for layer in _PER_MSG_LAYERS:
        metrics[f"{layer}.self_hu_per_msg"] = layer_hu[layer] / msgs
    untraced = _rate(window["slices"], "messages")
    metrics["trace.overhead_ratio"] = _rate(traced["slices"], "messages") / untraced
    metrics["obs.overhead_ratio"] = _rate(observed["slices"], "messages") / untraced
    return {name: metrics[name] for name in PER_LAYER}


# -- orchestrator -------------------------------------------------------------


def _spawn(workload: str, seed: int, phase: str, seconds: float,
           window_scale: float, deadline: float) -> dict:
    """Run one phase in a fresh single-threaded interpreter."""
    command = [
        sys.executable, "-m", "perf", "worker",
        "--workload", workload, "--seed", str(seed), "--phase", phase,
        "--seconds", repr(seconds), "--window-scale", repr(window_scale),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise PhaseFailed(f"{workload}/{phase}: timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PhaseFailed(f"{workload}/{phase}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 window_scale: float, deadline: float) -> dict:
    """All phases of one workload; returns the result the command prints."""
    names = TRACE_PHASES if trace else ("timed",)
    phases = {p: _spawn(workload, seed, p, seconds, window_scale, deadline) for p in names}
    errors: Counter = Counter()
    for raw in phases.values():
        errors.update(raw["errors"])
    units = PER_LAYER if trace else END_TO_END
    if not all(raw["slices"] for raw in phases.values()):
        metrics = {}  # a phase stalled; its violation is in ``errors``
    elif trace:
        metrics = per_layer_metrics(phases["window"], phases["traced"], phases["observed"])
    else:
        metrics = end_to_end_metrics(phases["timed"])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "correct": not errors,
        "attempted": sum(raw["attempted"] for raw in phases.values()),
        "failed": sum(raw["failed"] for raw in phases.values()),
        "errors": dict(errors),
        "metrics": {
            name: {"value": value, "unit": units[name][0]} for name, value in metrics.items()
        },
        "phases": phases,
    }


def print_result(result: dict, out=sys.stdout) -> None:
    print(f"== {result['workload']} (seed {result['seed']})", file=out)
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}", file=out)
    timed = result["phases"].get("timed")
    if timed and timed["slices"]:
        steady = steady_slices(timed["slices"])
        voting = [r for r in steady if r["samples"] >= MIN_LATENCY_SAMPLES]
        print(
            f"  {len(steady)} of {len(timed['slices'])} slices steady, {len(voting)} with"
            f" {MIN_LATENCY_SAMPLES}+ latency samples"
            f" ({sum(r['samples'] for r in voting)} in all)", file=out,
        )
    verdict = "ok" if result["correct"] else "FAILED"
    print(
        f"  correctness: {verdict} ({result['attempted']} attempted,"
        f" {result['failed']} failed)", file=out,
    )
    for name, count in sorted(result["errors"].items()):
        print(f"  violation {name}: {count}", file=out)
