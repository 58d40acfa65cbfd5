"""Metrics: counters and fixed-bucket histograms.

The :class:`MetricsRegistry` aggregates *across* requests — where a span
records one operation, a metric records the distribution.  Metrics are keyed
by name plus a small label set (``tenant=...``, ``plan=...``, ``cache=...``),
matching the Prometheus data model so the text exporter in
:mod:`repro.telemetry.exporters` is a direct serialisation.

Histograms use fixed buckets, and every histogram the registry creates has
the latency-shaped :data:`DEFAULT_LATENCY_BUCKETS`, so percentile estimates
cost O(num_buckets) regardless of how many requests were observed;
:meth:`Histogram.percentile` interpolates linearly inside the winning bucket
and clamps to the observed min/max, which keeps small-sample estimates sane.

The service's request metrics (outcome counts, latency and queue-wait
histograms, the privacy-spend odometer) are a view of its audit trail, built
into a fresh registry at export (:func:`repro.service.export.request_metrics`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

__all__ = ["Counter", "Histogram", "MetricsRegistry", "DEFAULT_LATENCY_BUCKETS"]

#: Geometric latency buckets (seconds): 100 µs ... ~100 s, then +inf overflow.
DEFAULT_LATENCY_BUCKETS = tuple(1e-4 * (10 ** (i / 3.0)) for i in range(19))

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    labels: _LabelKey = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


@dataclass
class Histogram:
    """Fixed-bucket histogram with O(buckets) percentile estimation.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything larger.  ``counts`` has
    ``len(bounds) + 1`` entries.
    """

    name: str
    labels: _LabelKey = ()
    bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0
    minimum: float = math.inf
    maximum: float = -math.inf

    def __post_init__(self):
        self.bounds = tuple(float(b) for b in self.bounds)
        if list(self.bounds) != sorted(self.bounds) or len(set(self.bounds)) != len(self.bounds):
            raise ValueError("histogram bucket bounds must be strictly increasing")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        # Linear scan beats bisect for the short default bucket list and is
        # branch-predictable for latency-shaped data (most hits land early).
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``0 <= q <= 100``) from buckets.

        The rank is located in the cumulative bucket counts and interpolated
        linearly between the bucket's edges; results are clamped to the exact
        observed ``[minimum, maximum]`` so the overflow bucket and sparse
        small samples cannot report values never seen.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return math.nan
        rank = q / 100.0 * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            lower_cumulative = cumulative
            cumulative += bucket_count
            if rank <= cumulative:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i] if i < len(self.bounds) else self.maximum
                fraction = (rank - lower_cumulative) / bucket_count
                estimate = lower + fraction * (upper - lower)
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - rank always <= count

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean if self.count else None,
            "p50": self.percentile(50) if self.count else None,
            "p95": self.percentile(95) if self.count else None,
            "p99": self.percentile(99) if self.count else None,
            "buckets": {
                **{f"le_{bound:g}": c for bound, c in zip(self.bounds, self.counts)},
                "le_inf": self.counts[-1],
            },
        }


class MetricsRegistry:
    """Label-aware registry of counters and histograms.

    Lookups are thread-safe: racing first lookups of one name and label set
    create one instrument.  Updating an instrument takes no lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, _LabelKey], Counter] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument accessors (get-or-create; safe to call on hot paths).
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._counters.get(key)
            if instrument is None:
                instrument = self._counters[key] = Counter(name, key[1])
            return instrument

    def histogram(self, name: str, **labels) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(name, key[1])
            return instrument

    def add(self, instrument: Counter | Histogram) -> None:
        """Register a built instrument under its name and labels, replacing
        any there (export-time views are assembled this way)."""
        table = self._counters if isinstance(instrument, Counter) else self._histograms
        with self._lock:
            table[(instrument.name, instrument.labels)] = instrument

    # ------------------------------------------------------------------
    # Snapshots.
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready dump of every instrument (used by ``telemetry_report``)."""
        counters, _, histograms = self.instruments()
        return {
            "counters": {_render_key(c.name, c.labels): c.value for c in counters},
            "histograms": {
                _render_key(h.name, h.labels): h.snapshot() for h in histograms
            },
        }

    def instruments(self) -> tuple[list[Counter], list, list[Histogram]]:
        """``(counters, [], histograms)``; the empty slot, once gauges, keeps
        the histograms at index 2 for the readers that index them."""
        with self._lock:
            return list(self._counters.values()), [], list(self._histograms.values())


def _render_key(name: str, labels: _LabelKey) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"
