"""Observability: trace a DAWA request end to end and export the artifacts.

Every seam of the stack is instrumented — service request, plan stages,
kernel measurements (with their ε and sensitivity), least-squares solves
(with Gram-cache hits) — but records nothing until a tracer is activated.
This walkthrough:

1. runs DAWA and Identity requests through the service with a
   :class:`~repro.telemetry.Tracer` attached and prints the span tree of one
   request (the hierarchy a flame graph would show),
2. writes the DAWA trace as a Chrome trace-event file — open it at
   ``chrome://tracing`` or https://ui.perfetto.dev to see partition /
   measurement / inference stages on a timeline,
3. prints the per-tenant privacy-spend odometer and latency percentiles,
   which the service computes from the session's audit trail when they are
   exported (and this script checks against the events), plus the
   Prometheus exposition a scraper would collect.

Run:  python examples/telemetry_tracing.py
"""

from __future__ import annotations

import math
from pathlib import Path

from repro.dataset import small_census
from repro.service import (
    PlanScheduler,
    QueryRequest,
    SessionManager,
    request_metrics,
    telemetry_report,
)
from repro.telemetry import Tracer, prometheus_text, write_chrome_trace

OUT = Path(__file__).resolve().parent / "dawa_trace.json"


def span_tree(spans) -> None:
    """Print one trace's spans as an indented tree with their attributes."""
    children: dict[str | None, list] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)

    def walk(parent_id, depth):
        for span in sorted(children.get(parent_id, []), key=lambda s: s.start):
            keys = ("epsilon", "cost", "method", "rows", "num_groups", "gram_cache_hit")
            attrs = ", ".join(
                f"{k}={span.attributes[k]}" for k in keys if k in span.attributes
            )
            print(
                f"  {'  ' * depth}{span.name:36s} {span.duration * 1e3:7.2f} ms"
                + (f"  [{attrs}]" if attrs else "")
            )
            walk(span.span_id, depth + 1)

    walk(None, 0)


def main() -> None:
    manager = SessionManager()
    session = manager.create_session("acme", small_census(), epsilon_total=2.0, seed=42)
    tracer = Tracer()
    scheduler = PlanScheduler(manager, tracer=tracer)

    n = session.vector_source().domain_size
    dawa = scheduler.execute(
        QueryRequest(
            session.session_id,
            plan="DAWA",
            epsilon=0.5,
            workload="prefix",
            workload_params={"n": n},
        )
    )
    identity = scheduler.execute(
        QueryRequest(
            session.session_id,
            plan="Identity",
            epsilon=0.1,
            workload="prefix",
            workload_params={"n": n},
        )
    )

    print("=== 1. Span tree of the DAWA request ===")
    print(f"trace id: {dawa.trace_id} (also on the session's audit event)")
    span_tree(tracer.trace(dawa.trace_id))

    print("\n=== 2. Chrome trace export ===")
    write_chrome_trace(tracer.trace(dawa.trace_id), OUT)
    print(f"wrote {OUT.name} - load it in chrome://tracing or ui.perfetto.dev")

    print("\n=== 3. Metrics: odometer, latency, Prometheus ===")
    report = telemetry_report(scheduler)
    odometer = report["privacy_odometer"]["acme"]
    # The metrics are a view of the audit trail: each number is its count,
    # or math.fsum, over the session's events.
    events = session.events
    assert odometer["total_spent"] == math.fsum(e.epsilon_spent for e in events)
    assert odometer["requests"] == len(events)
    print(f"tenant acme spent {odometer['total_spent']:.3f} {odometer['unit']} "
          f"over {odometer['requests']} requests:")
    for plan, entry in odometer["plans"].items():
        mine = [e for e in events if e.plan == plan]
        assert entry["spent"] == math.fsum(e.epsilon_spent for e in mine)
        assert entry["requests"] == len(mine)
        print(f"  {plan:10s} spent={entry['spent']:.3f} requests={entry['requests']}")
    latency = report["metrics"]["histograms"]["service_request_latency_seconds{tenant=acme}"]
    assert latency["count"] == len(events)
    assert latency["sum"] == math.fsum(e.duration_seconds for e in events)
    print(f"request latency: p50={latency['p50'] * 1e3:.2f} ms "
          f"p95={latency['p95'] * 1e3:.2f} ms max={latency['max'] * 1e3:.2f} ms")
    print(f"\nidentity request trace: {identity.trace_id} "
          f"({len(tracer.trace(identity.trace_id))} spans)")
    print("\nPrometheus exposition (first lines):")
    for line in prometheus_text(request_metrics(scheduler)).splitlines()[:8]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
