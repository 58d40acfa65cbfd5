"""Operator observability: trace parity, retry linking, flight recorder, SLO
burn-rate engine.

The invariants of the observability layer across the execution core:

* **trace parity** — the same request produces *structurally identical* span
  trees (names, parentage, ε attributes) on the inline and thread backends;
* **retry linking** — every attempt of a retried request carries the same
  trace id plus its own ``attempt`` attribute;
* **flight recorder** — request failures, circuit-breaker opens and worker
  deaths each freeze a postmortem bundle (spans + outcomes + metrics +
  breaker/admission state), optionally written to disk;
* **SLO engine** — multi-window burn rates over the registry are exact under
  a manual clock, and only fire when the short *and* long windows burn.
"""

from __future__ import annotations

import json
import pickle
import threading

import numpy as np
import pytest

from repro.dataset import Attribute, Relation, Schema
from repro.durability import FaultInjector, InjectedFault, WorkerDeath
from repro.service import (
    CircuitBreaker,
    PlanScheduler,
    QueryRequest,
    SessionManager,
    slo_report,
)
from repro.telemetry import (
    BurnWindow,
    FlightRecorder,
    ManualClock,
    MetricsRegistry,
    SloEngine,
    SloSpec,
    Span,
    Tracer,
    prometheus_text,
    spans_to_chrome_trace,
)

N = 64


@pytest.fixture
def relation():
    rng = np.random.default_rng(7)
    schema = Schema.build([Attribute("v", N)])
    return Relation.from_histogram(schema, rng.integers(0, 50, size=N).astype(float))


def _dawa_request(session_id: str) -> QueryRequest:
    return QueryRequest(
        session_id,
        plan="DAWA",
        epsilon=0.5,
        workload="prefix",
        workload_params={"n": N},
    )


def _traced_run(relation, executor, request_fn=_dawa_request):
    manager = SessionManager()
    tracer = Tracer()
    scheduler = PlanScheduler(manager, tracer=tracer, executor=executor)
    session = manager.create_session(
        "acme", relation, 10.0, seed=7, session_id="acme-s1"
    )
    response = scheduler.execute(request_fn(session.session_id))
    scheduler.shutdown()
    return response, tracer, scheduler


def _batched_run(relation, executor):
    """Like :func:`_traced_run`, but through ``execute_batch`` — the path
    that hands requests to the backend's driver threads."""
    manager = SessionManager()
    tracer = Tracer()
    scheduler = PlanScheduler(manager, tracer=tracer, executor=executor)
    session = manager.create_session(
        "acme", relation, 10.0, seed=7, session_id="acme-s1"
    )
    (response,) = scheduler.execute_batch([_dawa_request(session.session_id)])
    scheduler.shutdown()
    return response, tracer


def _shape(spans):
    """Structural digest of a span tree: names, parentage, ε attributes."""
    children: dict[str | None, list] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)

    def walk(parent_id):
        return tuple(
            sorted(
                (
                    span.name,
                    span.status,
                    span.attributes.get("epsilon"),
                    walk(span.span_id),
                )
                for span in children.get(parent_id, [])
            )
        )

    return walk(None)


# ----------------------------------------------------------------------------
# Cross-backend trace parity.
# ----------------------------------------------------------------------------
class TestTraceParity:
    def test_span_trees_structurally_identical_across_backends(self, relation):
        _, inline_tracer, _ = _traced_run(relation, "inline")
        _, thread_tracer, _ = _traced_run(relation, "thread")
        assert _shape(thread_tracer.spans()) == _shape(inline_tracer.spans())
        # The tree is non-trivial: a real DAWA trace with kernel measurements.
        names = {span.name for span in inline_tracer.spans()}
        assert "service.request" in names
        assert "plan.run" in names
        assert any(name.startswith("kernel.measure") for name in names)

    def test_retry_attempts_share_one_trace(self, relation):
        manager = SessionManager()
        tracer = Tracer()
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, tracer=tracer, executor="inline")
        session = manager.create_session("acme", relation, 10.0, seed=7)
        session.kernel.fault_injector = faults
        faults.arm("kernel.before_charge", times=1, transient=True)
        response = scheduler.execute_with_retry(
            QueryRequest(session.session_id, plan="Identity", epsilon=0.1)
        )
        assert response.x_hat is not None
        roots = [s for s in tracer.spans() if s.name == "service.request"]
        assert len(roots) == 2
        assert roots[0].trace_id == roots[1].trace_id == response.trace_id
        assert {s.attributes["attempt"] for s in roots} == {1, 2}
        failed = next(s for s in roots if s.attributes["attempt"] == 1)
        assert failed.status == "error"

    def test_batched_span_trees_identical_across_backends(self, relation):
        inline_response, inline_tracer = _batched_run(relation, "inline")
        thread_response, thread_tracer = _batched_run(relation, "thread")
        assert np.array_equal(inline_response.x_hat, thread_response.x_hat)
        assert _shape(thread_tracer.spans()) == _shape(inline_tracer.spans())
        # The two runs really took different paths: the pool's driver
        # thread versus the calling thread.
        assert {span.thread for span in thread_tracer.spans()} != {
            span.thread for span in inline_tracer.spans()
        }

    def test_thread_backend_spans_share_one_trace(self, relation):
        response, tracer = _batched_run(relation, "thread")
        spans = tracer.trace(response.trace_id)
        # Driver stages and kernel spans share the request's single trace
        # id, with unique span ids, and all record on one driver thread.
        assert {span.trace_id for span in spans} == {response.trace_id}
        ids = [span.span_id for span in spans]
        assert len(ids) == len(set(ids))
        assert len({span.thread for span in spans}) == 1
        assert spans[0].thread.startswith("svc-driver")
        by_id = {span.span_id: span for span in spans}
        (root,) = [span for span in spans if span.parent_id is None]
        assert root.name == "service.request"
        # Every kernel measurement hangs (transitively) under plan.run.
        kernel_spans = [s for s in spans if s.name.startswith("kernel.measure")]
        assert kernel_spans
        for span in kernel_spans:
            ancestors = []
            while span.parent_id is not None:
                span = by_id[span.parent_id]
                ancestors.append(span.name)
            assert "plan.run" in ancestors
            assert ancestors[-1] == "service.request"


# ----------------------------------------------------------------------------
# Metrics state: the plain-data view the SLO engine reads.
# ----------------------------------------------------------------------------
class TestMetricsState:
    def test_export_state_roundtrips_and_pickles(self):
        registry = MetricsRegistry(clock=ManualClock(start=5.0, tick=1.0))
        registry.counter("c", a="1").inc(3)
        registry.gauge("g").set(7.5)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        registry.record_privacy_spend("acme", "DAWA", 0.25)
        state = registry.export_state()
        assert pickle.loads(pickle.dumps(state)) == state
        assert state["counters"] == [("c", (("a", "1"),), 3.0)]
        assert state["gauges"] == [("g", (), 7.5)]
        assert state["histograms"] == [
            ("h", (), (1.0, 2.0), [0, 1, 0], 1.5, 1, 1.5, 1.5)
        ]
        assert state["spend"] == [("acme", "DAWA", "epsilon", 0.25, 1, 5.0, 5.0)]
        # A copy, not a view: later observations leave the export untouched.
        registry.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        assert state["histograms"][0][3] == [0, 1, 0]

    def test_concurrent_lookups_share_one_instrument(self):
        # The thread backend's driver threads all look instruments up by
        # name; racing first lookups must still create exactly one each.
        registry = MetricsRegistry()
        barrier = threading.Barrier(4)
        found = []

        def lookup():
            barrier.wait(timeout=10)
            for _ in range(50):
                found.append(registry.histogram("latency", tenant="acme"))
                found.append(registry.counter("requests", tenant="acme"))

        threads = [threading.Thread(target=lookup) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(found) == 400
        assert len({id(instrument) for instrument in found}) == 2
        counters, gauges, histograms = registry.instruments()
        assert (len(counters), len(gauges), len(histograms)) == (1, 0, 1)


# ----------------------------------------------------------------------------
# The flight recorder.
# ----------------------------------------------------------------------------
class TestFlightRecorder:
    def _scheduler(self, relation, recorder, breaker=None):
        manager = SessionManager()
        tracer = Tracer()
        scheduler = PlanScheduler(
            manager,
            tracer=tracer,
            executor="inline",
            flight_recorder=recorder,
            breaker=breaker,
        )
        session = manager.create_session("acme", relation, 10.0, seed=7)
        return scheduler, session

    def test_ring_buffers_are_bounded(self):
        recorder = FlightRecorder(max_spans=4, max_outcomes=2)
        for i in range(10):
            recorder.record_span(
                Span("t", f"s{i}", None, "x", float(i), float(i), "main")
            )
            recorder.record_outcome({"request_id": i})
        assert len(recorder.spans()) == 4
        assert [o["request_id"] for o in recorder.outcomes()] == [8, 9]

    def test_request_failure_dumps_bundle(self, relation):
        recorder = FlightRecorder()
        scheduler, session = self._scheduler(relation, recorder)
        faults = FaultInjector()
        session.kernel.fault_injector = faults
        faults.arm("kernel.before_charge", times=1, transient=False)
        with pytest.raises(InjectedFault):
            scheduler.execute(
                QueryRequest(session.session_id, plan="Identity", epsilon=0.1)
            )
        assert len(recorder.bundles) == 1
        bundle = recorder.bundles[-1]
        assert bundle["reason"] == "request_failure"
        assert bundle["context"]["outcome"] == "error"
        assert bundle["outcomes"][-1]["outcome"] == "error"
        # The failed request's inner spans are in the bundle (the tracer
        # listener feeds the ring as each span finishes; the root span is
        # still open at dump time), and the metrics snapshot rode along.
        assert any(s["name"] == "plan.run" for s in bundle["spans"])
        assert any(s["status"] == "error" for s in bundle["spans"])
        assert "service_requests{outcome=error,plan=Identity,tenant=acme}" in (
            bundle["metrics"]["counters"]
        )
        assert bundle["chrome_trace"]["traceEvents"]

    def test_breaker_open_dumps_bundle(self, relation):
        recorder = FlightRecorder()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_seconds=1000.0)
        scheduler, session = self._scheduler(relation, recorder, breaker=breaker)
        faults = FaultInjector()
        session.kernel.fault_injector = faults
        faults.arm("kernel.before_charge", times=1, transient=False)
        with pytest.raises(InjectedFault):
            scheduler.execute(
                QueryRequest(session.session_id, plan="Identity", epsilon=0.1)
            )
        reasons = [bundle["reason"] for bundle in recorder.bundles]
        assert "breaker_open" in reasons
        opened = next(b for b in recorder.bundles if b["reason"] == "breaker_open")
        assert opened["state"]["breaker"]["Identity"]["open"] is True

    def test_worker_death_dumps_bundle(self, relation):
        recorder = FlightRecorder()
        scheduler, session = self._scheduler(relation, recorder)
        faults = FaultInjector()
        scheduler.fault_injector = faults
        faults.arm("scheduler.worker", times=1, exception=WorkerDeath("killed"))
        [outcome] = scheduler.execute_batch(
            [QueryRequest(session.session_id, plan="Identity", epsilon=0.1)],
            return_exceptions=True,
        )
        assert isinstance(outcome, WorkerDeath)
        assert [b["reason"] for b in recorder.bundles] == ["worker_death"]

    def test_dump_writes_postmortem_directory(self, relation, tmp_path):
        recorder = FlightRecorder(directory=tmp_path)
        scheduler, session = self._scheduler(relation, recorder)
        scheduler.execute(
            QueryRequest(session.session_id, plan="Identity", epsilon=0.1)
        )
        bundle = scheduler._postmortem("operator_requested", note="manual")
        target = tmp_path / "postmortem-0001-operator_requested"
        assert bundle["path"] == str(target)
        spans = [
            json.loads(line)
            for line in (target / "spans.jsonl").read_text().splitlines()
        ]
        assert any(span["name"] == "service.request" for span in spans)
        trace_doc = json.loads((target / "trace.json").read_text())
        assert trace_doc["traceEvents"]
        metrics = json.loads((target / "metrics.json").read_text())
        assert "service_requests{outcome=ok,plan=Identity,tenant=acme}" in (
            metrics["counters"]
        )
        state = json.loads((target / "state.json").read_text())
        assert state["reason"] == "operator_requested"
        assert state["context"] == {"note": "manual"}


# ----------------------------------------------------------------------------
# The SLO engine.
# ----------------------------------------------------------------------------
class TestSloEngine:
    def _engine(self, specs):
        clock = ManualClock()
        registry = MetricsRegistry(clock=clock)
        engine = SloEngine(
            registry,
            specs=specs,
            windows=(BurnWindow(short_seconds=10.0, long_seconds=60.0, factor=2.0),),
            clock=clock,
        )
        return clock, registry, engine

    def test_error_rate_burn_and_alert(self):
        clock, registry, engine = self._engine(
            [SloSpec(name="avail", kind="error_rate", target=0.9)]
        )
        clock.advance(60.0)
        for _ in range(5):
            registry.counter(
                "service_requests", tenant="acme", plan="DAWA", outcome="ok"
            ).inc()
        for _ in range(5):
            registry.counter(
                "service_requests", tenant="acme", plan="DAWA", outcome="error"
            ).inc()
        [report] = engine.evaluate()
        # 50% bad against a 10% budget: burning 5× the sustainable rate in
        # both windows (they share the t=0 baseline) — over the 2× factor.
        assert report["sli"] == pytest.approx(0.5)
        assert report["rules"][0]["short_burn_rate"] == pytest.approx(5.0)
        assert report["rules"][0]["long_burn_rate"] == pytest.approx(5.0)
        assert report["alerting"] is True
        # Published back into the registry for the Prometheus exporter.
        text = prometheus_text(registry)
        assert 'slo_alerting{slo="avail"} 1.0' in text
        assert 'slo_burn_rate{slo="avail",window="10s"} 5.0' in text

    def test_latency_slo_counts_threshold_buckets(self):
        clock, registry, engine = self._engine(
            [
                SloSpec(
                    name="lat", kind="latency", target=0.9, threshold_seconds=0.1
                )
            ]
        )
        clock.advance(60.0)
        for _ in range(8):
            registry.histogram(
                "service_request_latency_seconds", tenant="acme"
            ).observe(0.01)
        for _ in range(2):
            registry.histogram(
                "service_request_latency_seconds", tenant="acme"
            ).observe(5.0)
        [report] = engine.evaluate()
        assert report["sli"] == pytest.approx(0.8)
        assert report["rules"][0]["short_burn_rate"] == pytest.approx(2.0)
        assert report["alerting"] is True

    def test_privacy_burn_needs_both_windows(self):
        clock, registry, engine = self._engine(
            [
                SloSpec(
                    name="acme-burn",
                    kind="privacy_burn",
                    tenant="acme",
                    plan="DAWA",
                    budget=1.0,
                    horizon_seconds=100.0,
                )
            ]
        )
        clock.advance(60.0)
        registry.record_privacy_spend("acme", "DAWA", 0.5)
        engine.sample()
        # A sudden burst: 0.5ε in 10 seconds is 5× the sustainable rate in
        # the short window, but the long window has only seen 1ε over 70s —
        # 1.43×, under the factor, so the alert stays quiet.
        clock.advance(10.0)
        registry.record_privacy_spend("acme", "DAWA", 0.5)
        [report] = engine.evaluate()
        rule = report["rules"][0]
        assert rule["short_burn_rate"] == pytest.approx(5.0)
        assert rule["long_burn_rate"] == pytest.approx(1.0 / 0.7, rel=1e-3)
        assert report["alerting"] is False
        assert report["sli"] == pytest.approx(0.0)  # budget fully spent

    def test_quiet_service_does_not_alert(self):
        clock, registry, engine = self._engine(
            [SloSpec(name="avail", kind="error_rate", target=0.99)]
        )
        clock.advance(30.0)
        registry.counter(
            "service_requests", tenant="acme", plan="Identity", outcome="ok"
        ).inc(100)
        [report] = engine.evaluate()
        assert report["sli"] == 1.0
        assert report["alerting"] is False
        assert report["rules"][0]["short_burn_rate"] == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown SLO kind"):
            SloSpec(name="x", kind="throughput")
        with pytest.raises(ValueError, match="threshold_seconds"):
            SloSpec(name="x", kind="latency")
        with pytest.raises(ValueError, match="budget"):
            SloSpec(name="x", kind="privacy_burn")

    def test_slo_report_over_live_scheduler(self, relation):
        manager = SessionManager()
        scheduler = PlanScheduler(manager, executor="inline")
        session = manager.create_session("acme", relation, 10.0, seed=7)
        for _ in range(3):
            scheduler.execute(
                QueryRequest(session.session_id, plan="Identity", epsilon=0.1)
            )
        report = slo_report(scheduler)
        assert {r["name"] for r in report["results"]} == {
            "latency-p99-1s",
            "availability",
        }
        availability = next(
            r for r in report["results"] if r["name"] == "availability"
        )
        assert availability["sli"] == 1.0
        assert availability["alerting"] is False
        scheduler.shutdown()


# ----------------------------------------------------------------------------
# Exporter escaping.
# ----------------------------------------------------------------------------
class TestExporterSatellites:
    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("requests", tenant='ac"me\\corp\nltd').inc()
        text = prometheus_text(registry)
        assert 'tenant="ac\\"me\\\\corp\\nltd"' in text
        # Exactly one physical exposition line per series — the newline in
        # the label value must not split the line.
        body = [line for line in text.splitlines() if not line.startswith("#")]
        assert body == ['requests_total{tenant="ac\\"me\\\\corp\\nltd"} 1.0']

    def test_thread_backend_trace_has_one_process_lane(self, relation):
        response, tracer = _batched_run(relation, "thread")
        doc = spans_to_chrome_trace(tracer.trace(response.trace_id), process_name="svc")
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in complete} == {1}
        process_names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert process_names == ["svc"]
        # The whole request ran on one driver thread: one named lane.
        lanes = {
            e["tid"]: e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert len(lanes) == 1
        (lane,) = lanes.values()
        assert lane.startswith("svc-driver")
        assert {e["tid"] for e in complete} == set(lanes)


class TestOrderIndependentSpend:
    """Per-request spend must not depend on batch interleaving.

    ``execute_batch`` drives requests concurrently on the thread backend but
    strictly in order on the inline backend, so the order in which a batch's
    charges land on the session ledger differs across backends.  The per-request spend is therefore summed from the request's
    own bracketed ledger slice (``fsum``), never as a difference of two
    running totals — the latter's last ulp shifts with whatever the
    accumulator held when the bracket opened.
    """

    def test_charged_between_ignores_prior_ledger_content(self):
        from repro.private.budget import BudgetTracker

        for prelude in ([0.1], [0.1, 0.05], [0.05, 0.1], []):
            tracker = BudgetTracker(epsilon_total=10.0)
            for epsilon in prelude:
                assert tracker.request("root", epsilon)
            start = tracker.num_charges
            assert tracker.request("root", 0.2)
            spent = tracker.charged_between(start, tracker.num_charges)
            assert spent == 0.2  # exactly, whatever charged before it

    def test_snapshot_brackets_expose_charge_indices(self, relation):
        manager = SessionManager()
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 10.0, seed=7)
        before = session.kernel.budget_snapshot()
        scheduler.execute(
            QueryRequest(session.session_id, plan="Identity", epsilon=0.25)
        )
        after = session.kernel.budget_snapshot()
        assert after.num_charges > before.num_charges
        assert session.kernel.budget_charged_between(before, after) == 0.25
