"""Operator-level observability: tracing, metrics, privacy-spend odometer.

The paper's thesis is that every private computation is a *plan* — a
composition of operators with predictable cost and error.  This package makes
the composition observable at runtime without touching plan logic:

* :class:`Tracer` / :func:`trace_span` — hierarchical spans (request → plan
  stage → kernel measurement → solver call) with a thread-local context, so
  instrumented seams nest automatically and concurrent requests never mix.
  The default is the no-op :data:`NULL_TRACER`; the service activates a real
  tracer per request when the operator opts in.
* :class:`MetricsRegistry` — counters and fixed-bucket histograms
  (p50/p95/p99 from buckets), labelled per tenant.  The service's request
  metrics and privacy-spend odometer are computed from its audit trail at
  export time (:func:`repro.service.export.request_metrics`).
* :mod:`~repro.telemetry.exporters` — JSON-lines span dumps, Chrome
  ``chrome://tracing`` trace-event files, Prometheus text exposition.

Everything is dependency-free and clock-injectable (see
:mod:`~repro.telemetry.clock`), so tests run deterministically and the
disabled path stays near-zero overhead.

Typical service usage::

    from repro.service import PlanScheduler, SessionManager
    from repro.telemetry import Tracer, write_chrome_trace

    scheduler = PlanScheduler(manager, tracer=Tracer())
    response = scheduler.execute(request)
    write_chrome_trace(scheduler.tracer.trace(response.trace_id), "trace.json")
"""

from .clock import DEFAULT_CLOCK, Clock, ManualClock
from .exporters import (
    prometheus_text,
    spans_to_chrome_trace,
    spans_to_jsonlines,
    write_chrome_trace,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)
from .spans import (
    NOOP_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanHandle,
    Tracer,
    activate,
    trace_span,
)

__all__ = [
    "Clock",
    "DEFAULT_CLOCK",
    "ManualClock",
    "Span",
    "SpanHandle",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NOOP_SPAN",
    "activate",
    "trace_span",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "spans_to_jsonlines",
    "spans_to_chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
]
