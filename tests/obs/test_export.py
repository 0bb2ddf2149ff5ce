"""Export pipeline: Prometheus text, JSONL records, the human report."""

from __future__ import annotations

import json

import pytest

from repro.core.linkhealth import HealthLedger
from repro.core.resilience import ResilienceStats
from repro.obs import EventKind, Observability
from repro.obs.export import render_report, to_jsonl, to_prometheus
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def populated():
    obs = Observability()
    registry = obs.registry
    registry.counter("signer.s1_sent").inc(3)
    registry.gauge("adaptive.loss_ewma").set(0.25)
    hist = registry.histogram("rtt_s", bounds=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(5.0)
    registry.record("link.loss.estimate", 2.0, 0.1)
    ledger = HealthLedger(registry)
    link = ledger.link("v")
    stats = ResilienceStats(packets_sent=20, retransmits_nack=4, rtt_samples=1)
    link.on_association()
    link.counts = lambda: stats
    link.on_rtt_sample(0.02)
    stats.exchanges_completed += 1
    link.on_exchange_done(3.0, 0.3)
    obs.tracer.emit(1.0, "s", EventKind.EXCHANGE_DONE, 9, seq=1)
    return obs, ledger


class TestPrometheus:
    def test_name_sanitization_and_namespace(self, populated):
        obs, ledger = populated
        text = to_prometheus(obs.registry, ledger)
        assert "alpha_signer_s1_sent 3" in text
        assert "." not in [line.split("{")[0] for line in text.splitlines()
                           if line and not line.startswith("#")][0]

    def test_histogram_exposition(self, populated):
        obs, _ = populated
        text = to_prometheus(obs.registry)
        # Cumulative buckets with the mandatory +Inf terminal.
        assert 'alpha_rtt_s_bucket{le="0.1"} 1' in text
        assert 'alpha_rtt_s_bucket{le="1"} 2' in text
        assert 'alpha_rtt_s_bucket{le="+Inf"} 3' in text
        assert "alpha_rtt_s_count 3" in text

    def test_type_lines(self, populated):
        obs, _ = populated
        text = to_prometheus(obs.registry)
        assert "# TYPE alpha_signer_s1_sent counter" in text
        assert "# TYPE alpha_adaptive_loss_ewma gauge" in text
        assert "# TYPE alpha_rtt_s histogram" in text

    def test_per_link_labels(self, populated):
        obs, ledger = populated
        text = to_prometheus(obs.registry, ledger)
        assert 'alpha_link_retransmits_nack{peer="v"} 4' in text
        assert 'alpha_link_loss_corruption{peer="v"} 1.0' in text


class TestJsonl:
    def test_every_line_parses(self, populated):
        obs, ledger = populated
        lines = to_jsonl(obs.registry, ledger, obs.tracer).strip().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = {record["record"] for record in records}
        assert {"counter", "gauge", "histogram", "series", "link",
                "tracer", "bound"} <= kinds

    def test_link_record_contents(self, populated):
        obs, ledger = populated
        records = [
            json.loads(line)
            for line in to_jsonl(obs.registry, ledger).strip().splitlines()
        ]
        link = next(r for r in records if r["record"] == "link")
        assert link["peer"] == "v"
        assert link["retransmits_nack"] == 4
        assert link["loss_corruption"] == 1.0

    def test_tracer_health_line(self, populated):
        obs, _ = populated
        records = [
            json.loads(line)
            for line in to_jsonl(obs.registry, tracer=obs.tracer).strip().splitlines()
        ]
        tracer = next(r for r in records if r["record"] == "tracer")
        assert tracer["events"] == 1
        assert tracer["evicted_exchanges"] == 0


class TestReport:
    def test_report_mentions_links_and_split(self, populated):
        obs, ledger = populated
        text = render_report(obs.registry, ledger, obs.tracer)
        assert "link health" in text
        assert "v" in text
        assert "tracer: 1 events" in text

    def test_empty_report(self):
        assert "nothing to report" in render_report()

    def test_report_without_ledger(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        text = render_report(registry)
        assert "metrics" in text and "link health" not in text
