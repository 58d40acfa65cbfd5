"""Operator observability: a postmortem bundle and SLO burn rates.

This walkthrough:

1. attaches a :class:`~repro.telemetry.FlightRecorder` to the scheduler,
   answers one request and fails a second on purpose: the failure dumps a
   postmortem bundle (spans + outcomes + metrics + breaker state) into
   ``postmortem/``,
2. evaluates latency / availability / privacy-burn SLOs over the scheduler's
   registry with :func:`repro.service.slo_report`.

Run:  python examples/postmortem_and_slos.py
"""

from __future__ import annotations

from pathlib import Path

from repro.dataset import small_census
from repro.private import DeadlineExceededError
from repro.service import PlanScheduler, QueryRequest, SessionManager, slo_report
from repro.telemetry import FlightRecorder, SloSpec, Tracer

HERE = Path(__file__).resolve().parent
POSTMORTEM_DIR = HERE / "postmortem"


def main() -> None:
    manager = SessionManager()
    session = manager.create_session("acme", small_census(), epsilon_total=2.0, seed=42)
    recorder = FlightRecorder(directory=POSTMORTEM_DIR)
    scheduler = PlanScheduler(
        manager, tracer=Tracer(), executor="inline", flight_recorder=recorder
    )
    n = session.vector_source().domain_size

    print("=== 1. Postmortem bundle on a failed request ===")
    scheduler.execute(
        QueryRequest(
            session.session_id,
            plan="DAWA",
            epsilon=0.5,
            workload="prefix",
            workload_params={"n": n},
        )
    )
    # An impossible deadline: the request is ledgered as a timeout, and the
    # failure freezes the recorder's rings into a postmortem bundle.
    try:
        scheduler.execute(
            QueryRequest(
                session.session_id, plan="Identity", epsilon=0.1,
                deadline_seconds=1e-9,
            )
        )
    except DeadlineExceededError as exc:
        print(f"request failed as arranged: {exc}")
    bundle = recorder.bundles[-1]
    print(
        f"bundle: reason={bundle['reason']} spans={len(bundle['spans'])} "
        f"outcomes={len(bundle['outcomes'])}"
    )
    print(f"written to {Path(bundle['path']).relative_to(HERE)}/ "
          "(spans.jsonl, trace.json, metrics.json, state.json)")

    print("\n=== 2. SLO burn rates over the live registry ===")
    report = slo_report(
        scheduler,
        specs=[
            SloSpec(name="latency-p99-1s", kind="latency", target=0.99,
                    threshold_seconds=1.0),
            SloSpec(name="availability", kind="error_rate", target=0.999),
            SloSpec(name="acme-privacy-burn", kind="privacy_burn", tenant="acme",
                    budget=2.0, horizon_seconds=86400.0),
        ],
    )
    for result in report["results"]:
        rule = result["rules"][0]
        print(
            f"  {result['name']:18s} sli={result['sli']:.4f} "
            f"burn={rule['short_burn_rate']:.2f}x/"
            f"{rule['long_burn_rate']:.2f}x alerting={result['alerting']}"
        )
    print(
        "(two requests, one failed on purpose: a 50% error rate against a "
        "99.9% target is a huge burn rate - exactly what should page)"
    )


if __name__ == "__main__":
    main()
