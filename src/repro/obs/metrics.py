"""Counters, gauges, and histograms: the metrics half of :mod:`repro.obs`.

The registry is deliberately small: named instruments created on demand,
a thread-safe snapshot, and a merge operation for counters that arrive
from worker processes.  There are no labels — a metric's identity is its
dotted name (``"runtime.pool.launches"``), and "by reason"
breakdowns are separate names under a common prefix
(``"runtime.degraded.no_shm"``), which keeps the snapshot a flat,
JSON-ready mapping.

Every instrument has a null twin that ignores every call, and
:class:`NullMetricsRegistry` hands those twins out — that is what makes
the disabled instrumentation path effectively free (see
``benchmarks/test_obs_overhead.py`` for the gate).
"""

from __future__ import annotations

import math
import threading
from typing import Mapping

from .timeline import NULL_TIMELINE, MetricsTimeline, TimelineEvent

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "METRICS_SCHEMA_VERSION",
]

#: Version stamped into :meth:`MetricsRegistry.snapshot` payloads.
#: Version 1 was the unversioned ``{counters, gauges, histograms}``
#: shape; version 2 added the ``schema`` field itself and the
#: ring-buffered ``timeline`` section.
METRICS_SCHEMA_VERSION = 2


class Counter:
    """A monotonically increasing count (events, bytes, cache hits)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        """The accumulated count."""
        return self._value

    def increment(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the count."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount!r})")
        with self._lock:
            self._value += amount


class Gauge:
    """A point-in-time value (resident segments, pool workers)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    @property
    def value(self) -> float:
        """The most recently set value."""
        return self._value

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)


#: Geometric growth factor between histogram bucket boundaries.  Bucket
#: ``i`` covers ``[_BUCKET_GROWTH**i, _BUCKET_GROWTH**(i+1))``, so any
#: quantile estimate is within ~4% relative error of the true value —
#: tight enough for latency percentiles without per-observation storage.
_BUCKET_GROWTH = 1.04
_LOG_BUCKET_GROWTH = math.log(_BUCKET_GROWTH)


class Histogram:
    """A streaming summary of observed values (chunk wall-times).

    Keeps count/total/min/max plus sparse log-spaced buckets (geometric
    growth ~4%), so :meth:`quantile` can answer p50/p90/p99 to within a
    few percent relative error — enough for "where did the time go" and
    latency-percentile reports without per-observation storage.
    Individual timings that need attribution belong in spans, not here.
    """

    __slots__ = (
        "name",
        "_count",
        "_total",
        "_min",
        "_max",
        "_buckets",
        "_nonpositive",
        "_lock",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._buckets: dict[int, int] = {}
        self._nonpositive = 0
        self._lock = threading.Lock()

    def record(self, value: float) -> None:
        """Fold one observation into the summary."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if value > 0.0:
                bucket = math.floor(math.log(value) / _LOG_BUCKET_GROWTH)
                self._buckets[bucket] = self._buckets.get(bucket, 0) + 1
            else:
                self._nonpositive += 1

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimate (nearest-rank over the buckets).

        Non-positive observations sort below every bucket and resolve to
        the recorded minimum; within a bucket the estimate is the
        geometric midpoint of its bounds, clamped to the observed
        ``[min, max]``.  Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        with self._lock:
            if not self._count:
                return 0.0
            rank = max(1, math.ceil(q * self._count))
            if rank <= self._nonpositive:
                return self._min
            remaining = rank - self._nonpositive
            for bucket in sorted(self._buckets):
                remaining -= self._buckets[bucket]
                if remaining <= 0:
                    low = _BUCKET_GROWTH**bucket
                    high = low * _BUCKET_GROWTH
                    estimate = math.sqrt(low * high)
                    return min(max(estimate, self._min), self._max)
            return self._max

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return self._total

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self._total / self._count if self._count else 0.0

    def summary(self) -> dict[str, float]:
        """The JSON-ready summary mapping (includes p50/p90/p99)."""
        return {
            "count": self._count,
            "total": self._total,
            "mean": self.mean,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms.

    Instruments are created on first use and live for the registry's
    lifetime; creation and snapshotting are thread-safe (worker-process
    metrics arrive through :meth:`merge_counters` on the main process,
    so instruments themselves only need in-process safety).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._timeline = MetricsTimeline()

    @property
    def timeline(self) -> MetricsTimeline:
        """The ring-buffered event timeline (see :meth:`mark`)."""
        return self._timeline

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on demand)."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on demand)."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on demand)."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name)
            return instrument

    # -- convenience entry points (what instrumented code calls) --------

    def increment(self, name: str, amount: float = 1.0) -> None:
        """Increment the counter ``name`` by ``amount``."""
        self.counter(name).increment(amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value``."""
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name``."""
        self.histogram(name).record(value)

    def merge_counters(self, counts: Mapping[str, float]) -> None:
        """Fold a worker process's counter deltas into this registry."""
        for name, amount in counts.items():
            self.counter(name).increment(amount)

    def mark(self, name: str, value: float = 1.0) -> TimelineEvent:
        """Stamp a timeline event (``what changed and when`` forensics)."""
        return self._timeline.mark(name, value)

    def snapshot(self) -> dict[str, object]:
        """A JSON-ready copy of every instrument's current state.

        The payload is versioned by its ``schema`` field
        (:data:`METRICS_SCHEMA_VERSION`); consumers treating it as a
        plain mapping of the original three sections keep working, since
        versions only add keys.
        """
        with self._lock:
            counters = {name: c.value for name, c in sorted(self._counters.items())}
            gauges = {name: g.value for name, g in sorted(self._gauges.items())}
            histograms = {
                name: h.summary() for name, h in sorted(self._histograms.items())
            }
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "timeline": self._timeline.snapshot(),
        }


class _NullCounter(Counter):
    """A counter that ignores every increment."""

    __slots__ = ()

    def increment(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    """A gauge that ignores every set."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    """A histogram that ignores every observation."""

    __slots__ = ()

    def record(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every instrument is a shared no-op twin.

    This is the default registry on every hot path; its methods allocate
    nothing and take no locks, so instrumented code costs a few function
    calls when observability is off.
    """

    def __init__(self) -> None:  # no dicts, no lock
        pass

    @property
    def timeline(self) -> MetricsTimeline:
        return NULL_TIMELINE

    def counter(self, name: str) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> Histogram:
        return _NULL_HISTOGRAM

    def increment(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def merge_counters(self, counts: Mapping[str, float]) -> None:
        pass

    def mark(self, name: str, value: float = 1.0) -> TimelineEvent:
        return NULL_TIMELINE.mark(name, value)

    def snapshot(self) -> dict[str, object]:
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "counters": {},
            "gauges": {},
            "histograms": {},
            "timeline": [],
        }


#: The shared disabled registry.
NULL_REGISTRY = NullMetricsRegistry()
