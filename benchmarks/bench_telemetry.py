"""Benchmark of the telemetry subsystem: disabled overhead and tracing cost.

Three sections:

* ``noop_overhead`` — cost of one instrumented seam when no tracer is active
  (the ``trace_span`` thread-local read returning the shared no-op handle),
  scaled by the spans-per-request count of a real traced request to a
  per-request overhead fraction against measured service latency.
  **Gated**: the fraction must stay below ``--max-disabled-overhead``
  (default 2% full mode — instrumentation left in place must be free for
  deployments that never opt in).
* ``service_throughput`` — requests/second through the
  :class:`~repro.service.PlanScheduler` with tracing disabled vs enabled
  (same sessions, fresh uncached requests), and the enabled/disabled ratio.
  Enabled tracing is allowed to cost — it buys a full span tree per request —
  but the number is recorded so the trajectory catches regressions.
* ``exporter_throughput`` — spans/second through the JSON-lines and Chrome
  trace-event serialisers over a realistic span population.

Each run appends one trajectory point to ``BENCH_telemetry.json`` at the
repo root.  CI runs ``--quick`` mode with loose floors so slow runners do
not flake.

Usage::

    python benchmarks/bench_telemetry.py            # full sizes
    python benchmarks/bench_telemetry.py --quick    # CI smoke mode
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.dataset import Attribute, Relation, Schema
from repro.service import PlanScheduler, QueryRequest, SessionManager
from repro.telemetry import Tracer, spans_to_chrome_trace, spans_to_jsonlines, trace_span

try:
    from .conftest import _time, record_trajectory
except ImportError:  # pragma: no cover
    from conftest import _time, record_trajectory

DOMAIN = 64


def _relation() -> Relation:
    rng = np.random.default_rng(0)
    schema = Schema.build([Attribute("v", DOMAIN)])
    return Relation.from_histogram(schema, rng.integers(0, 50, size=DOMAIN))


def _scheduler(tracer: Tracer | None, num_requests: int):
    manager = SessionManager()
    session = manager.create_session(
        "bench", _relation(), epsilon_total=num_requests * 0.2, seed=0
    )
    scheduler = (
        PlanScheduler(manager, tracer=tracer) if tracer is not None else PlanScheduler(manager)
    )
    return scheduler, session


def _request(session, index: int) -> QueryRequest:
    # Distinct epsilons keep every request a genuine cache miss.
    return QueryRequest(
        session.session_id,
        plan="Identity",
        epsilon=0.1 + index * 1e-6,
        workload="prefix",
        workload_params={"n": DOMAIN},
        reuse=False,
    )


def _run_requests(scheduler, session, num_requests: int) -> None:
    for index in range(num_requests):
        scheduler.execute(_request(session, index))


def bench_service_throughput(num_requests: int, repeats: int) -> list[dict]:
    """Requests/second with tracing disabled vs enabled (fresh state per run)."""
    results = []
    for mode, tracer_factory in (("disabled", lambda: None), ("enabled", Tracer)):
        def run():
            scheduler, session = _scheduler(tracer_factory(), num_requests)
            _run_requests(scheduler, session, num_requests)

        seconds = _time(run, repeats)
        results.append(
            {
                "section": "service_throughput",
                "tracing": mode,
                "num_requests": num_requests,
                "seconds": seconds,
                "requests_per_second": num_requests / max(seconds, 1e-12),
            }
        )
    disabled, enabled = results
    disabled["enabled_over_disabled"] = enabled["enabled_over_disabled"] = (
        disabled["seconds"] / max(enabled["seconds"], 1e-12)
    )
    return results


def bench_noop_overhead(service_results: list[dict], calls: int, repeats: int) -> dict:
    """Per-request cost of dormant instrumentation, as a latency fraction."""

    def burst():
        for _ in range(calls):
            with trace_span("bench.seam", a=1):
                pass

    seconds_per_call = _time(burst, repeats) / calls

    # Spans a real request produces when tracing IS on — that many dormant
    # seams fire on the disabled path too.
    tracer = Tracer()
    scheduler, session = _scheduler(tracer, num_requests=4)
    response = scheduler.execute(_request(session, 0))
    spans_per_request = len(tracer.trace(response.trace_id))

    disabled = next(
        r for r in service_results if r["section"] == "service_throughput" and r["tracing"] == "disabled"
    )
    request_seconds = disabled["seconds"] / disabled["num_requests"]
    overhead_fraction = seconds_per_call * spans_per_request / max(request_seconds, 1e-12)
    return {
        "section": "noop_overhead",
        "seconds_per_seam": seconds_per_call,
        "spans_per_request": spans_per_request,
        "request_seconds_disabled": request_seconds,
        "overhead_fraction": overhead_fraction,
    }


def bench_exporters(num_spans: int, repeats: int) -> list[dict]:
    """Serialisation throughput over a realistic traced-service population."""
    tracer = Tracer()
    scheduler, session = _scheduler(tracer, num_requests=num_spans)
    index = 0
    while len(tracer) < num_spans:
        scheduler.execute(_request(session, index))
        index += 1
    spans = tracer.spans()[:num_spans]
    results = []
    for name, export in (
        ("jsonlines", spans_to_jsonlines),
        ("chrome_trace", lambda s: json.dumps(spans_to_chrome_trace(s))),
    ):
        seconds = _time(lambda: export(spans), repeats)
        results.append(
            {
                "section": "exporter_throughput",
                "exporter": name,
                "num_spans": len(spans),
                "seconds": seconds,
                "spans_per_second": len(spans) / max(seconds, 1e-12),
            }
        )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode: fewer sizes/repeats")
    parser.add_argument(
        "--max-disabled-overhead",
        type=float,
        default=None,
        help="fail if dormant instrumentation costs more than this fraction "
        "of per-request latency (default: 0.02 full, 0.15 quick — CI "
        "hardware is noisy)",
    )
    parser.add_argument(
        "--no-record", action="store_true", help="skip appending to BENCH_telemetry.json"
    )
    args = parser.parse_args()

    if args.quick:
        repeats = 1
        num_requests = 60
        noop_calls = 20_000
        num_spans = 200
    else:
        repeats = 3
        num_requests = 300
        noop_calls = 200_000
        num_spans = 1000

    max_overhead = args.max_disabled_overhead if args.max_disabled_overhead is not None else (
        0.15 if args.quick else 0.02
    )

    results = bench_service_throughput(num_requests, repeats)
    noop = bench_noop_overhead(results, noop_calls, repeats)
    results.append(noop)
    results += bench_exporters(num_spans, repeats)

    print(f"\nTelemetry benchmark ({'quick' if args.quick else 'full'} mode)\n")
    for r in results:
        if r["section"] == "service_throughput":
            print(
                f"  service_throughput tracing={r['tracing']:8s} "
                f"{r['requests_per_second']:10.0f} req/s over {r['num_requests']}"
            )
        elif r["section"] == "noop_overhead":
            print(
                f"  noop_overhead {r['seconds_per_seam'] * 1e9:8.0f} ns/seam x "
                f"{r['spans_per_request']} seams/request = "
                f"{r['overhead_fraction'] * 100:.3f}% of request latency"
            )
        elif r["section"] == "exporter_throughput":
            print(
                f"  exporter_throughput {r['exporter']:12s} "
                f"{r['spans_per_second']:10.0f} spans/s over {r['num_spans']}"
            )

    print(
        f"\nGate: disabled-instrumentation overhead "
        f"{noop['overhead_fraction'] * 100:.3f}% (threshold {max_overhead * 100:.1f}%)"
    )

    if not args.no_record:
        record_trajectory("telemetry", "quick" if args.quick else "full", results)

    if noop["overhead_fraction"] > max_overhead:
        print("FAIL: dormant telemetry instrumentation is no longer free", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
