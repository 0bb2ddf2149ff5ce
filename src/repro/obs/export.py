"""Export pipeline: registry + ledger state as Prometheus text or JSONL.

Three renderers over the same live objects, none of which touch the
protocol hot path (export is always pull — a snapshot at the moment of
the call):

* :func:`to_prometheus` — the Prometheus text exposition format, for
  scraping a long-running process (``python -m repro export``);
* :func:`to_jsonl` — one JSON object per line, self-describing records
  for offline analysis and diffing (``python -m repro export -f jsonl``);
* :func:`render_report` — a human-readable link-health report
  (``python -m repro report``).

Metric names are dotted internally (``signer.s1_sent``); Prometheus
accepts ``[a-zA-Z_:][a-zA-Z0-9_:]*``, so :func:`_prom_name` maps every
illegal character to ``_`` and prefixes the ``alpha_`` namespace.
Per-link ledger values export with a ``peer`` label rather than a
name-embedded peer, which is the label-cardinality-correct shape. A
``ledger`` (a ``repro.core.linkhealth.HealthLedger``) is read through
its entries' attributes and ``snapshot()``: obs imports no core code.
"""

from __future__ import annotations

import json
import re

from repro.obs.metrics import Histogram, MetricsRegistry

_ILLEGAL = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _ILLEGAL.sub("_", name)
    if sanitized[:1].isdigit():
        sanitized = "_" + sanitized
    return f"alpha_{sanitized}"


def _prom_value(value: object) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def _histogram_lines(name: str, histogram: Histogram) -> list[str]:
    """Cumulative ``_bucket``/``_sum``/``_count`` triple, with ``+Inf``."""
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    for i, bound in enumerate(histogram.bounds):
        cumulative += histogram.buckets[i]
        lines.append(f'{name}_bucket{{le="{bound:g}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {histogram.count}')
    lines.append(f"{name}_sum {_prom_value(histogram.total)}")
    lines.append(f"{name}_count {histogram.count}")
    return lines


#: Ledger snapshot keys exported per link, with their Prometheus type.
_LINK_FIELDS = (
    ("associations", "counter"),
    ("packets_sent", "counter"),
    ("retransmits_timeout", "counter"),
    ("retransmits_nack", "counter"),
    ("corrupt_arrivals", "counter"),
    # The far end's wire-reported view (PROTOCOL.md §16): how many
    # summaries have been merged and its corrupt-arrival count, so a
    # scrape shows both sides of the fused loss split.
    ("peer_reports", "counter"),
    ("peer_corrupt_arrivals", "counter"),
    ("exchanges_completed", "counter"),
    ("exchanges_failed", "counter"),
    ("srtt_s", "gauge"),
    ("loss_ewma", "gauge"),
    ("loss_congestion", "gauge"),
    ("loss_corruption", "gauge"),
    ("latency_p50_s", "gauge"),
    ("latency_p99_s", "gauge"),
)


def to_prometheus(
    registry: MetricsRegistry, ledger=None
) -> str:
    """Render the registry (and optionally a ledger) as Prometheus text."""
    lines: list[str] = []
    for name, counter in sorted(registry._counters.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {counter.value}")
    for name, gauge in sorted(registry._gauges.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(gauge.value)}")
    for name, histogram in sorted(registry._histograms.items()):
        lines.extend(_histogram_lines(_prom_name(name), histogram))
    for name, sample in sorted(registry._bound.items()):
        prom = _prom_name(name)
        value = sample()
        lines.append(f"# TYPE {prom} gauge")
        if isinstance(value, dict):
            for label, labeled in sorted(value.items()):
                lines.append(f'{prom}{{label="{label}"}} {_prom_value(labeled)}')
        else:
            lines.append(f"{prom} {_prom_value(value)}")
    if ledger is not None:
        for field, kind in _LINK_FIELDS:
            prom = _prom_name(f"link.{field}")
            emitted_type = False
            for link in ledger:
                snap = link.snapshot()
                value = snap.get(field)
                if value is None:
                    continue
                if not emitted_type:
                    lines.append(f"# TYPE {prom} {kind}")
                    emitted_type = True
                lines.append(f'{prom}{{peer="{link.peer}"}} {_prom_value(value)}')
    return "\n".join(lines) + "\n"


def to_jsonl(
    registry: MetricsRegistry,
    ledger=None,
    tracer=None,
) -> str:
    """One self-describing JSON object per line.

    Record shapes: ``{"record": "counter"|"gauge", "name", "value"}``,
    ``{"record": "histogram", "name", ...snapshot}``,
    ``{"record": "series", "name", ...snapshot}``,
    ``{"record": "link", "peer", ...ledger snapshot}``, and a final
    ``{"record": "tracer", ...}`` health line when a tracer is given.
    """
    records: list[dict] = []
    for name, counter in sorted(registry._counters.items()):
        records.append({"record": "counter", "name": name, "value": counter.value})
    for name, gauge in sorted(registry._gauges.items()):
        records.append({"record": "gauge", "name": name, "value": gauge.value})
    for name, histogram in sorted(registry._histograms.items()):
        records.append(
            {"record": "histogram", "name": name, **histogram.snapshot()}
        )
    for name, sample in sorted(registry._bound.items()):
        records.append({"record": "bound", "name": name, "value": sample()})
    for name, series in sorted(registry._series.items()):
        records.append({"record": "series", "name": name, **series.snapshot()})
    if ledger is not None:
        for snap in ledger.snapshot().values():
            records.append({"record": "link", **snap})
    if tracer is not None:
        records.append(
            {
                "record": "tracer",
                "events": len(tracer.events),
                "dropped": tracer.dropped,
                "evicted_exchanges": tracer.evicted_exchanges,
            }
        )
    return "\n".join(json.dumps(record, sort_keys=True) for record in records) + "\n"


def _fmt(value: object, places: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{places}f}"
    return str(value)


def render_report(
    registry: MetricsRegistry | None = None,
    ledger=None,
    tracer=None,
) -> str:
    """Human-readable link-health + metrics report."""
    out: list[str] = []
    if ledger is not None and len(ledger):
        out.append("link health")
        out.append("-" * 78)
        header = (
            f"{'peer':<8} {'assoc':>5} {'sent':>7} {'rtx_to':>6} {'rtx_nak':>7}"
            f" {'corrupt':>7} {'loss':>7} {'cong':>5} {'corr':>5}"
            f" {'srtt_ms':>8} {'p50_ms':>7} {'p99_ms':>7}"
        )
        out.append(header)
        for link in ledger:
            snap = link.snapshot()
            congestion, corruption = link.loss_split()
            srtt = snap["srtt_s"]
            p50 = snap["latency_p50_s"]
            p99 = snap["latency_p99_s"]
            out.append(
                f"{link.peer:<8} {link.associations:>5} {link.packets_sent:>7}"
                f" {link.retransmits_timeout:>6} {link.retransmits_nack:>7}"
                f" {link.corrupt_arrivals:>7} {snap['loss_ewma']:>7.4f}"
                f" {congestion:>5.2f} {corruption:>5.2f}"
                f" {_fmt(srtt * 1e3 if srtt is not None else None, 2):>8}"
                f" {_fmt(p50 * 1e3 if p50 is not None else None, 2):>7}"
                f" {_fmt(p99 * 1e3 if p99 is not None else None, 2):>7}"
            )
        if not all(link.split_confident for link in ledger):
            out.append("(cong/corr split unconfident: too few loss events on a link)")
        out.append("")
    if registry is not None:
        snap = registry.snapshot()
        if snap:
            out.append("metrics")
            out.append("-" * 78)
            for name in sorted(snap):
                value = snap[name]
                if isinstance(value, dict):
                    compact = {
                        k: v for k, v in value.items() if k in ("count", "sum")
                    }
                    out.append(f"  {name:<44} {compact}")
                else:
                    out.append(f"  {name:<44} {_fmt(value)}")
            out.append("")
    if tracer is not None:
        out.append(
            f"tracer: {len(tracer.events)} events,"
            f" {tracer.dropped} dropped,"
            f" {tracer.evicted_exchanges} exchanges evicted"
        )
        out.append("")
    if not out:
        return "nothing to report (observability was not enabled)\n"
    return "\n".join(out)
