"""Metrics: counters, gauges, fixed-bucket histograms and the spend odometer.

The :class:`MetricsRegistry` aggregates *across* requests — where a span
records one operation, a metric records the distribution.  Metrics are keyed
by name plus a small label set (``tenant=...``, ``plan=...``, ``cache=...``),
matching the Prometheus data model so the text exporter in
:mod:`repro.telemetry.exporters` is a direct serialisation.

Histograms use fixed buckets (latency-shaped by default) so percentile
estimates cost O(num_buckets) regardless of how many requests were observed;
:meth:`Histogram.percentile` interpolates linearly inside the winning bucket
and clamps to the observed min/max, which keeps small-sample estimates sane.

The registry doubles as the service's **privacy-spend odometer**: every
request's budget delta is recorded per (tenant, plan) together with first/last
observation times, so operators can read cumulative ε/ρ burn and burn *rate*
per tenant without walking session ledgers.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from .clock import DEFAULT_CLOCK, Clock

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_LATENCY_BUCKETS"]

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
class Gauge:
    """A value that can go up and down (queue depths, cache sizes)."""

    name: str
    labels: _LabelKey = ()
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


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


@dataclass
class _SpendEntry:
    """Odometer cell: cumulative spend of one (tenant, plan) pair."""

    tenant: str
    plan: str
    unit: str
    spent: float = 0.0
    requests: int = 0
    first_time: float | None = None
    last_time: float | None = None

    def burn_rate(self) -> float | None:
        """Spend per second over the observed window (None below 2 samples)."""
        if self.first_time is None or self.last_time is None:
            return None
        window = self.last_time - self.first_time
        if window <= 0:
            return None
        return self.spent / window


class MetricsRegistry:
    """Thread-safe, label-aware registry of counters, gauges and histograms."""

    def __init__(self, clock: Clock | None = None):
        self._clock = clock if clock is not None else DEFAULT_CLOCK
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, _LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, _LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}
        self._spend: dict[tuple[str, str], _SpendEntry] = {}

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

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._gauges.get(key)
            if instrument is None:
                instrument = self._gauges[key] = Gauge(name, key[1])
            return instrument

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels
    ) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = self._histograms[key] = Histogram(
                    name, key[1], bounds=buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS
                )
            return instrument

    # ------------------------------------------------------------------
    # Privacy-spend odometer.
    # ------------------------------------------------------------------
    def record_privacy_spend(
        self, tenant: str, plan: str, spent: float, unit: str = "epsilon"
    ) -> None:
        """Add one request's budget delta (native units) to the odometer.

        Zero-spend requests (cache hits, rejected requests) still tick the
        request count so hit rates are readable next to the burn figures.
        """
        now = self._clock()
        with self._lock:
            entry = self._spend.get((tenant, plan))
            if entry is None:
                entry = self._spend[(tenant, plan)] = _SpendEntry(tenant, plan, unit)
            entry.spent += float(spent)
            entry.requests += 1
            if entry.first_time is None:
                entry.first_time = now
            entry.last_time = now

    def privacy_odometer(self) -> dict:
        """Per-tenant spend view: totals, per-plan breakdown, burn rates."""
        with self._lock:
            entries = [
                _SpendEntry(**vars(entry)) for entry in self._spend.values()
            ]
        tenants: dict[str, dict] = {}
        for entry in entries:
            tenant = tenants.setdefault(
                entry.tenant,
                {"unit": entry.unit, "total_spent": 0.0, "requests": 0, "plans": {}},
            )
            tenant["total_spent"] += entry.spent
            tenant["requests"] += entry.requests
            tenant["plans"][entry.plan] = {
                "spent": entry.spent,
                "requests": entry.requests,
                "burn_rate_per_second": entry.burn_rate(),
            }
        for tenant in tenants.values():
            rates = [
                plan["burn_rate_per_second"]
                for plan in tenant["plans"].values()
                if plan["burn_rate_per_second"] is not None
            ]
            tenant["burn_rate_per_second"] = sum(rates) if rates else None
        return tenants

    # ------------------------------------------------------------------
    # Snapshots.
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready dump of every instrument (used by ``telemetry_report``)."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {
                _render_key(c.name, c.labels): c.value for c in counters
            },
            "gauges": {_render_key(g.name, g.labels): g.value for g in gauges},
            "histograms": {
                _render_key(h.name, h.labels): h.snapshot() for h in histograms
            },
            "privacy_odometer": self.privacy_odometer(),
        }

    def instruments(self) -> tuple[list[Counter], list[Gauge], list[Histogram]]:
        """Raw instrument lists (used by the Prometheus exporter)."""
        with self._lock:
            return (
                list(self._counters.values()),
                list(self._gauges.values()),
                list(self._histograms.values()),
            )


def _render_key(name: str, labels: _LabelKey) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"
