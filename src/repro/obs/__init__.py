"""Observability: metrics registry + exchange tracer behind one flag.

The paper's whole evaluation (Sections 4–5) is measurement — hash-op
counts per role, per-packet overhead, ack latency — and PR 1's
resilience machinery (adaptive RTO, eviction, dead-peer detection) is
invisible without runtime instrumentation. This package is the
measurement substrate: a :class:`~repro.obs.metrics.MetricsRegistry`
for counters/gauges/histograms and an
:class:`~repro.obs.trace.ExchangeTracer` for typed per-exchange
lifecycle events, both reachable through a single
:class:`Observability` facade.

The contract with the protocol engines::

    obs = Observability()                 # enabled, fresh registry+tracer
    signer = SignerSession(..., obs=obs, node="s")

    if self._obs.enabled:                 # the ONLY disabled-path cost
        self._obs.tracer.emit(now, self._node, EventKind.S1_SEND, ...)
        self._obs.registry.counter("signer.s1_sent").inc()

A count the engine already keeps in an always-on block is not counted
again: the engine reads the block in once, at construction::

    if self._obs.enabled:
        self._obs.registry.read(self, read_fields(self.stats, STATS_COUNTERS))

Engines default to the shared :data:`OBS_OFF` singleton, so an
uninstrumented caller pays one attribute load and branch per call site
and allocates nothing.
"""

from __future__ import annotations

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.timeseries import TimeSeries
from repro.obs.trace import EventKind, ExchangeTracer, TraceEvent


class Observability:
    """One enable flag fronting a registry and a tracer."""

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(
        self,
        enabled: bool = True,
        registry: MetricsRegistry | None = None,
        tracer: ExchangeTracer | None = None,
    ) -> None:
        self.enabled = enabled
        self.registry = (
            registry if registry is not None else MetricsRegistry(enabled=enabled)
        )
        self.tracer = tracer if tracer is not None else ExchangeTracer()
        if enabled:
            # Tracer health, pulled lazily at snapshot time: how much of
            # the story the bounded buffer has shed.
            sink = self.tracer
            self.registry.bind("obs.trace.evicted", lambda: sink.evicted_exchanges)
            self.registry.bind("obs.trace.dropped", lambda: sink.dropped)


#: Shared disabled singleton: the default for every engine's ``obs``
#: parameter. Its registry hands out null instruments and its tracer is
#: never reached (call sites guard on ``enabled``).
OBS_OFF = Observability(enabled=False)

__all__ = [
    "Observability",
    "OBS_OFF",
    "EventKind",
    "ExchangeTracer",
    "TraceEvent",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Counter",
    "Gauge",
    "Histogram",
    "TimeSeries",
]
