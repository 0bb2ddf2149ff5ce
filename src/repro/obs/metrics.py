"""Zero-dependency metrics: counters, gauges, histograms, a registry.

The registry is the measurement substrate the benchmarks and the
conformance suite read from. Design constraints, in order:

1. Near-zero overhead when disabled — a disabled registry hands out
   shared null instruments whose mutators are no-ops, and every
   instrumented hot path in the protocol engines is additionally guarded
   by a single ``if obs.enabled:`` boolean check, so the disabled cost
   is one attribute load + branch per call site.
2. No dependencies — plain dicts and dataclass-free ``__slots__``
   classes; snapshots are ordinary ``dict`` subclasses.
3. Pull-friendly — ``bind`` registers a callable sampled at snapshot
   time, which is how the per-role :class:`~repro.crypto.hashes.OpCounter`
   blocks are exported without touching the crypto hot path at all.
4. One book per event — an engine counts in its always-on block, and
   ``read`` makes a counter sample that block instead of a second tally.
"""

from __future__ import annotations

import functools
import weakref
from typing import Callable

from repro.obs.timeseries import NULL_TIME_SERIES, TimeSeries


class Counter:
    """A monotonically increasing integer, plus the blocks it reads."""

    __slots__ = ("name", "_count", "_reads")

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0
        self._reads: dict[object, Callable[[], int]] = {}

    def inc(self, amount: int = 1) -> None:
        self._count += amount

    @property
    def value(self) -> int:
        return self._count + sum(sample() for sample in self._reads.values())


class Gauge:
    """A value that goes up and down (queue depth, buffered bytes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


#: Default histogram bucket boundaries, tuned for seconds-scale protocol
#: latencies (RTT samples, RTO values) but serviceable for byte counts.
DEFAULT_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 10.0)


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max."""

    __slots__ = ("name", "bounds", "buckets", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: tuple = DEFAULT_BOUNDS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        # Mis-ordered bounds would silently mis-bucket every observation
        # (the first matching bound wins), so reject them up front and
        # name the instrument — a histogram is usually constructed far
        # from where its skewed snapshot would eventually be noticed.
        if not self.bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket bound")
        for left, right in zip(self.bounds, self.bounds[1:]):
            if not left < right:
                raise ValueError(
                    f"histogram {name!r} bounds must be strictly increasing, "
                    f"got {left!r} before {right!r}"
                )
        # One bucket per bound plus the overflow bucket.
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def quantile(self, q: float) -> float | None:
        """Approximate quantile by linear interpolation inside buckets.

        Accurate to bucket granularity — good enough for the p50/p99
        columns of reports and bench snapshots. Returns None while the
        histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if not self.count:
            return None
        target = q * self.count
        cumulative = 0.0
        for i, bound in enumerate(self.bounds):
            in_bucket = self.buckets[i]
            if in_bucket and cumulative + in_bucket >= target:
                low = self.bounds[i - 1] if i else min(self.min, bound)
                high = min(bound, self.max)
                if high <= low:
                    return high
                fraction = (target - cumulative) / in_bucket
                return low + fraction * (high - low)
            cumulative += in_bucket
        # Overflow bucket: the best statement we can make is the max.
        return self.max

    def snapshot(self) -> dict:
        buckets = {}
        for i, bound in enumerate(self.bounds):
            if self.buckets[i]:
                buckets[f"le_{bound:g}"] = self.buckets[i]
        if self.buckets[-1]:
            buckets["overflow"] = self.buckets[-1]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


class _NullCounter(Counter):
    """Shared sink handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # pragma: no cover - trivial
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:  # pragma: no cover - trivial
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:  # pragma: no cover - trivial
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class MetricsSnapshot(dict):
    """A point-in-time ``{name: value}`` view of a registry.

    Histogram entries are nested dicts; everything else is numeric.
    ``diff`` subtracts an earlier snapshot, recursing one level into
    dict values (histogram count/sum, bound label dicts), which is what
    the Table 1 benchmarks use to isolate the measured window.
    """

    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        out = MetricsSnapshot()
        for name, value in self.items():
            before = earlier.get(name)
            if isinstance(value, dict):
                base = before if isinstance(before, dict) else {}
                out[name] = {
                    key: (
                        inner - base.get(key, 0)
                        if isinstance(inner, (int, float)) and not isinstance(inner, bool)
                        else inner
                    )
                    for key, inner in value.items()
                }
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                out[name] = value - (before if isinstance(before, (int, float)) else 0)
            else:
                out[name] = value
        return out


def read_fields(block: object, fields: dict[str, str]) -> dict[str, Callable[[], int]]:
    """``{counter name: attribute of block}`` as samples for
    :meth:`MetricsRegistry.read`."""
    return {
        name: functools.partial(getattr, block, field)
        for name, field in fields.items()
    }


class MetricsRegistry:
    """Names instruments; snapshots and resets them as one unit."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, TimeSeries] = {}
        self._bound: dict[str, Callable[[], object]] = {}

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, bounds: tuple = DEFAULT_BOUNDS) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, bounds)
        return instrument

    def series(
        self, name: str, capacity: int = TimeSeries.DEFAULT_CAPACITY
    ) -> TimeSeries:
        """Bounded ``(t, value)`` ring buffer for trend queries.

        Like the scalar instruments, the first caller names the series
        (and fixes its capacity); later callers share it. A disabled
        registry returns the shared null series.
        """
        if not self.enabled:
            return NULL_TIME_SERIES
        instrument = self._series.get(name)
        if instrument is None:
            instrument = self._series[name] = TimeSeries(name, capacity)
        return instrument

    def record(self, name: str, t: float, value: float) -> None:
        """Set gauge ``name`` to ``value`` *and* append to its series.

        The one-call idiom for trend-worthy gauges (loss estimates,
        SRTT): the gauge keeps the current value for snapshots, the ring
        buffer keeps the recent window for trend queries and export.
        """
        if not self.enabled:
            return
        self.gauge(name).set(value)
        self.series(name).record(t, value)

    def series_snapshot(self) -> dict[str, dict]:
        """Summaries of every ring buffer (kept out of ``snapshot`` so
        counter/gauge diffs stay purely numeric)."""
        return {name: series.snapshot() for name, series in self._series.items()}

    def bind(self, name: str, sample: Callable[[], object]) -> None:
        """Register a callable sampled lazily at snapshot time.

        The sample may return a number or a ``{label: number}`` dict
        (e.g. an OpCounter's per-label hash breakdown).
        """
        if self.enabled:
            self._bound[name] = sample

    def read(self, owner: object, samples: dict[str, Callable[[], int]]) -> None:
        """Make each named counter add ``sample()`` while ``owner`` lives.

        Readers of one name sum. A sample holds the owner's block, never
        the owner, so no cycle runs through the registry; when the owner
        is collected its last values fold into the counters.
        """
        if not self.enabled:
            return
        key = object()
        for name, sample in samples.items():
            self.counter(name)._reads[key] = sample
        weakref.finalize(owner, self._fold, key, tuple(samples)).atexit = False

    def _fold(self, key: object, names: tuple[str, ...]) -> None:
        for name in names:
            counter = self._counters[name]
            counter._count += counter._reads.pop(key)()

    def snapshot(self) -> MetricsSnapshot:
        snap = MetricsSnapshot()
        for name, counter in self._counters.items():
            snap[name] = counter.value
        for name, gauge in self._gauges.items():
            snap[name] = gauge.value
        for name, histogram in self._histograms.items():
            snap[name] = histogram.snapshot()
        for name, sample in self._bound.items():
            snap[name] = sample()
        return snap
