"""Tests of the observability layer (`repro.telemetry`) and its service wiring."""

from __future__ import annotations

import json
import math
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.dataset import Attribute, Relation, Schema
from repro.durability import FaultInjector, InjectedFault, PrivacyJournal, WorkerDeath
from repro.operators.inference import least_squares
from repro.private import BudgetExceededError
from repro.service import (
    ArtifactCache,
    PlanScheduler,
    QueryRequest,
    RequestFailure,
    SessionManager,
    request_metrics,
    session_report,
    telemetry_report,
)
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    ManualClock,
    MetricsRegistry,
    NOOP_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    activate,
    prometheus_text,
    spans_to_chrome_trace,
    spans_to_jsonlines,
    trace_span,
    write_chrome_trace,
)

N = 64


@pytest.fixture
def relation(small_vector):
    schema = Schema.build([Attribute("v", len(small_vector))])
    return Relation.from_histogram(schema, small_vector)


@pytest.fixture
def manager():
    return SessionManager()


def open_session(manager, relation, tenant="acme", epsilon_total=4.0, seed=0):
    return manager.create_session(tenant, relation, epsilon_total, seed=seed)


def identity_request(session, epsilon=0.1, **overrides):
    request = QueryRequest(
        session.session_id,
        plan="Identity",
        epsilon=epsilon,
        workload="prefix",
        workload_params={"n": N},
    )
    return replace(request, **overrides) if overrides else request


# ----------------------------------------------------------------------------
# Clock.
# ----------------------------------------------------------------------------
class TestManualClock:
    def test_tick_and_advance(self):
        clock = ManualClock(start=10.0, tick=0.5)
        assert clock() == 10.0
        assert clock() == 10.5
        clock.advance(4.0)
        assert clock() == 15.0


# ----------------------------------------------------------------------------
# Tracer core.
# ----------------------------------------------------------------------------
class TestTracer:
    def test_nesting_parent_child_and_durations(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        with tracer.span("outer", plan="DAWA") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span() is inner
                inner.set_attribute("rows", 3)
            assert tracer.current_span() is outer
        spans = {span.name: span for span in tracer.spans()}
        assert spans["inner"].trace_id == spans["outer"].trace_id
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        assert spans["outer"].attributes == {"plan": "DAWA"}
        assert spans["inner"].attributes == {"rows": 3}
        # inner opened after outer (one tick later) and closed before it.
        assert spans["inner"].start > spans["outer"].start
        assert spans["inner"].end < spans["outer"].end
        assert spans["outer"].duration == 3.0

    def test_error_status_and_propagation(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (span,) = tracer.spans()
        assert span.status == "error"
        assert span.attributes["error.type"] == "ValueError"

    def test_sibling_traces_get_distinct_ids(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, b = tracer.spans()
        assert a.trace_id != b.trace_id

    def test_max_spans_drops_oldest(self):
        tracer = Tracer(clock=ManualClock(tick=1.0), max_spans=2)
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        assert [span.name for span in tracer.spans()] == ["b", "c"]
        assert tracer.dropped == 1
        assert tracer.stats()["dropped"] == 1

    def test_threads_do_not_share_context(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        seen = {}

        def worker():
            # A span opened on the main thread must not become this thread's
            # parent: the context stack is thread-local.
            with tracer.span("child-thread") as handle:
                seen["parent"] = handle.parent_id
                seen["trace"] = handle.trace_id

        with tracer.span("main-thread") as main_span:
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert seen["parent"] is None
            assert seen["trace"] != main_span.trace_id

    def test_drain_empties_buffer(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        with tracer.span("a"):
            pass
        drained = tracer.drain()
        assert [span.name for span in drained] == ["a"]
        assert len(tracer) == 0


class TestActivation:
    def test_trace_span_is_noop_without_active_tracer(self):
        handle = trace_span("anything", key="value")
        assert handle is NOOP_SPAN  # the shared handle: no allocation at all
        with handle as span:
            span.set_attribute("ignored", 1)
        assert NOOP_SPAN.attributes == {}

    def test_activate_scopes_and_restores(self):
        tracer = Tracer(clock=ManualClock(tick=1.0))
        inner = Tracer(clock=ManualClock(tick=1.0))
        with activate(tracer):
            with trace_span("seam"):
                pass
            with activate(inner), trace_span("inner seam"):
                pass
            with trace_span("after"):
                pass
        assert trace_span("outside") is NOOP_SPAN
        assert [span.name for span in tracer.spans()] == ["seam", "after"]
        assert [span.name for span in inner.spans()] == ["inner seam"]

    def test_null_tracer_records_nothing(self):
        assert NULL_TRACER.span("x") is NOOP_SPAN
        assert len(NULL_TRACER) == 0
        assert NULL_TRACER.stats()["enabled"] is False


# ----------------------------------------------------------------------------
# Histogram / metrics.
# ----------------------------------------------------------------------------
class TestHistogram:
    def test_bucketing_and_counts(self):
        hist = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0, 100.0):
            hist.observe(value)
        assert hist.counts == [1, 2, 1, 1]  # last slot is the overflow bucket
        assert hist.count == 5
        assert hist.total == pytest.approx(106.6)
        assert hist.minimum == 0.5 and hist.maximum == 100.0

    def test_percentile_interpolation(self):
        hist = Histogram("lat", bounds=(10.0, 20.0))
        for value in (2.0, 4.0, 6.0, 8.0):
            hist.observe(value)
        # All mass in the first bucket [0, 10]: rank interpolates linearly.
        assert hist.percentile(50) == pytest.approx(5.0)
        assert hist.percentile(100) == pytest.approx(8.0)  # clamped to max
        assert hist.percentile(0) == pytest.approx(2.0)  # clamped to min

    def test_percentile_clamps_overflow_bucket(self):
        hist = Histogram("lat", bounds=(1.0,))
        hist.observe(5.0)
        hist.observe(7.0)
        # Overflow bucket has no upper edge; the observed max bounds it.
        assert hist.percentile(99) <= 7.0

    def test_percentile_edge_cases(self):
        hist = Histogram("lat", bounds=(1.0,))
        assert math.isnan(hist.percentile(50))
        with pytest.raises(ValueError):
            hist.percentile(101)
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(2.0, 1.0))

    def test_snapshot_shape(self):
        hist = Histogram("lat", bounds=(1.0, 2.0))
        hist.observe(0.5)
        snap = hist.snapshot()
        assert snap["count"] == 1 and snap["min"] == snap["max"] == 0.5
        assert set(snap["buckets"]) == {"le_1", "le_2", "le_inf"}

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestMetricsRegistry:
    def test_counters_are_label_scoped_and_monotonic(self):
        registry = MetricsRegistry()
        registry.counter("requests", tenant="a").inc()
        registry.counter("requests", tenant="a").inc(2)
        registry.counter("requests", tenant="b").inc()
        snap = registry.snapshot()
        assert snap["counters"]["requests{tenant=a}"] == 3
        assert snap["counters"]["requests{tenant=b}"] == 1
        with pytest.raises(ValueError):
            registry.counter("requests", tenant="a").inc(-1)


# ----------------------------------------------------------------------------
# Exporters.
# ----------------------------------------------------------------------------
def _sample_spans():
    return [
        Span(
            trace_id="trace-1",
            span_id="span-2",
            parent_id="span-1",
            name="kernel.measure.laplace",
            start=1.5,
            end=2.0,
            thread="worker-0",
            attributes={"epsilon": 0.1},
        ),
        Span(
            trace_id="trace-1",
            span_id="span-1",
            parent_id=None,
            name="service.request",
            start=1.0,
            end=3.0,
            thread="MainThread",
            status="ok",
        ),
    ]


class TestExporters:
    def test_jsonlines_golden(self):
        lines = spans_to_jsonlines(_sample_spans()).splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        # Ordered by start time, not completion order.
        assert first["span_id"] == "span-1" and second["span_id"] == "span-2"
        assert second == {
            "trace_id": "trace-1",
            "span_id": "span-2",
            "parent_id": "span-1",
            "name": "kernel.measure.laplace",
            "start": 1.5,
            "end": 2.0,
            "duration": 0.5,
            "thread": "worker-0",
            "status": "ok",
            "attributes": {"epsilon": 0.1},
        }

    def test_chrome_trace_golden(self):
        doc = spans_to_chrome_trace(_sample_spans())
        assert doc["displayTimeUnit"] == "ms"
        metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["args"]["name"] for e in metadata} == {
            "repro.service",
            "MainThread",
            "worker-0",
        }
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        root = by_name["service.request"]
        child = by_name["kernel.measure.laplace"]
        # Rebased to the earliest start, in microseconds.
        assert root["ts"] == 0.0 and root["dur"] == pytest.approx(2e6)
        assert child["ts"] == pytest.approx(0.5e6) and child["dur"] == pytest.approx(0.5e6)
        assert child["tid"] != root["tid"]  # one lane per thread
        assert child["args"]["parent_id"] == "span-1"
        assert child["args"]["epsilon"] == 0.1
        assert child["cat"] == "kernel"

    def test_chrome_trace_roundtrips_to_disk(self, tmp_path):
        path = write_chrome_trace(_sample_spans(), tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 5

    def test_prometheus_golden(self):
        registry = MetricsRegistry()
        registry.counter("service_requests", tenant="acme", outcome="ok").inc(3)
        hist = Histogram("latency_seconds", (("tenant", "acme"),), bounds=(1.0, 2.0))
        registry.add(hist)
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(9.0)
        text = prometheus_text(registry)
        assert '# TYPE service_requests_total counter' in text
        assert 'service_requests_total{outcome="ok",tenant="acme"} 3.0' in text
        assert 'latency_seconds_bucket{tenant="acme",le="1.0"} 1' in text
        assert 'latency_seconds_bucket{tenant="acme",le="2.0"} 2' in text
        assert 'latency_seconds_bucket{tenant="acme",le="+Inf"} 3' in text
        assert 'latency_seconds_sum{tenant="acme"} 11.0' in text
        assert 'latency_seconds_count{tenant="acme"} 3' in text
        assert text.endswith("\n")


# ----------------------------------------------------------------------------
# Service integration.
# ----------------------------------------------------------------------------
class TestSchedulerTracing:
    def test_request_trace_tree(self, manager, relation):
        session = open_session(manager, relation)
        tracer = Tracer()
        scheduler = PlanScheduler(manager, tracer=tracer)
        response = scheduler.execute(identity_request(session))
        assert response.trace_id is not None
        spans = tracer.trace(response.trace_id)
        by_name = {span.name: span for span in spans}
        root = by_name["service.request"]
        assert root.parent_id is None
        assert root.attributes["plan"] == "Identity"
        assert root.attributes["cached"] is False
        assert root.attributes["epsilon_spent"] == pytest.approx(
            response.epsilon_spent
        )
        # Every non-root span links to a parent within the same trace.
        ids = {span.span_id for span in spans}
        for span in spans:
            if span.parent_id is not None:
                assert span.parent_id in ids
        assert "plan.run" in by_name
        assert by_name["kernel.measure.laplace"].attributes["epsilon"] == pytest.approx(
            0.1
        )

    def test_batch_traces_do_not_cross(self, manager, relation):
        sessions = [
            open_session(manager, relation, tenant=f"t{i}", seed=i) for i in range(3)
        ]
        tracer = Tracer()
        scheduler = PlanScheduler(manager, tracer=tracer, max_workers=4)
        requests = [
            identity_request(session, reuse=False)
            for session in sessions
            for _ in range(3)
        ]
        responses = scheduler.execute_batch(requests)
        trace_ids = [response.trace_id for response in responses]
        assert len(set(trace_ids)) == len(trace_ids)  # one trace per request
        for response in responses:
            spans = tracer.trace(response.trace_id)
            roots = [span for span in spans if span.parent_id is None]
            assert len(roots) == 1 and roots[0].name == "service.request"
            assert roots[0].attributes["request_id"] == response.request_id
            ids = {span.span_id for span in spans}
            for span in spans:
                if span.parent_id is not None:
                    assert span.parent_id in ids  # parent lives in SAME trace

    def test_cached_replay_gets_own_trace(self, manager, relation):
        """A traced replay is its root and the cache probe that found it."""
        session = open_session(manager, relation)
        tracer = Tracer()
        scheduler = PlanScheduler(manager, tracer=tracer)
        first = scheduler.execute(identity_request(session))
        second = scheduler.execute(identity_request(session))
        assert second.cached and second.trace_id != first.trace_id
        root, probe = sorted(tracer.trace(second.trace_id), key=lambda span: span.start)
        assert root.name == "service.request" and root.attributes["cached"] is True
        assert probe.name == "cache.probe" and probe.parent_id == root.span_id
        assert probe.attributes["hit"] is True
        assert root.start <= probe.start and probe.end <= root.end
        # The fresh request probed too, and missed, before its plan ran.
        spans = {span.name: span for span in tracer.trace(first.trace_id)}
        assert spans["cache.probe"].attributes["hit"] is False
        assert spans["cache.probe"].end <= spans["plan.run"].start

    def test_untraced_replay_calls_no_tracer_method(self, manager, relation, monkeypatch):
        session = open_session(manager, relation)
        scheduler = PlanScheduler(manager, executor="inline")
        scheduler.execute(identity_request(session))

        def refuse(*args, **kwargs):
            raise AssertionError("an untraced replay called the tracer")

        for cls in (type(NULL_TRACER), type(NOOP_SPAN), activate):
            for name, member in vars(cls).items():
                if callable(member) and name not in ("__init__", "__new__"):
                    monkeypatch.setattr(cls, name, refuse)
        replay = scheduler.execute(identity_request(session))
        assert replay.cached and replay.trace_id is None

    def test_disabled_tracing_records_nothing(self, manager, relation):
        session = open_session(manager, relation)
        scheduler = PlanScheduler(manager)
        assert scheduler.tracer is NULL_TRACER
        response = scheduler.execute(identity_request(session))
        assert response.trace_id is None
        assert session.events[-1].trace_id is None
        assert len(scheduler.tracer) == 0

    def test_solver_span_reports_gram_cache_hit(self):
        rng = np.random.default_rng(0)
        queries = np.eye(8)
        answers = rng.normal(size=8)
        cache = ArtifactCache()
        tracer = Tracer()
        with activate(tracer):
            least_squares(queries, answers, method="normal", gram_cache=cache)
            least_squares(queries, answers, method="normal", gram_cache=cache)
        solves = [s for s in tracer.spans() if s.name == "solve.least_squares"]
        assert [span.attributes["gram_cache_hit"] for span in solves] == [False, True]


class TestEventTiming:
    def test_events_carry_durations(self, manager, relation):
        session = open_session(manager, relation)
        scheduler = PlanScheduler(manager)
        scheduler.execute(identity_request(session))
        scheduler.execute(identity_request(session))  # cache hit is timed too
        fresh, cached = session.events
        assert fresh.duration_seconds > 0
        assert fresh.queue_wait_seconds >= 0
        assert cached.cached and cached.duration_seconds > 0

    def test_session_report_telemetry_section(self, manager, relation):
        session = open_session(manager, relation)
        scheduler = PlanScheduler(manager)
        for _ in range(3):
            scheduler.execute(identity_request(session, reuse=False))
        telemetry = session_report(session)["telemetry"]
        assert telemetry["num_timed"] == 3
        assert telemetry["total_seconds"] >= telemetry["max_seconds"] > 0
        assert telemetry["p50_seconds"] <= telemetry["p95_seconds"] <= telemetry["max_seconds"]
        assert telemetry["total_queue_wait_seconds"] >= 0

    @pytest.mark.parametrize(
        "durations, p50, p95",
        [([1.0, 2.0], 1.0, 2.0), ([float(d) for d in range(1, 21)], 10.0, 19.0)],
        ids=["1..2", "1..20"],
    )
    def test_session_report_percentiles_are_nearest_rank(
        self, manager, relation, durations, p50, p95
    ):
        session = open_session(manager, relation)
        PlanScheduler(manager).execute(identity_request(session))
        event = session.events[0]
        session.events[:] = [replace(event, duration_seconds=d) for d in reversed(durations)]
        telemetry = session_report(session)["telemetry"]
        assert (telemetry["p50_seconds"], telemetry["p95_seconds"]) == (p50, p95)
        assert telemetry["max_seconds"] == durations[-1]

    def test_empty_session_report_telemetry(self, manager, relation):
        session = open_session(manager, relation)
        telemetry = session_report(session)["telemetry"]
        assert telemetry["num_timed"] == 0 and telemetry["total_seconds"] == 0.0


class TestStructuredFailures:
    def test_batch_failure_keeps_type_and_attaches_context(self, manager, relation):
        session = open_session(manager, relation, epsilon_total=0.25)
        tracer = Tracer()
        scheduler = PlanScheduler(manager, tracer=tracer)
        requests = [
            identity_request(session, epsilon=0.2, reuse=False),
            identity_request(session, epsilon=0.2, reuse=False),  # busts budget
        ]
        results = scheduler.execute_batch(requests, return_exceptions=True)
        assert not isinstance(results[0], Exception)
        error = results[1]
        assert isinstance(error, BudgetExceededError)  # original type survives
        failure = RequestFailure.of(error)
        assert failure is not None
        assert failure.batch_index == 1
        assert failure.error_type == "BudgetExceededError"
        assert failure.plan == "Identity"
        assert failure.session_id == session.session_id
        assert failure.trace_id is not None
        # The failed request's root span is marked errored.
        root = [
            span
            for span in tracer.trace(failure.trace_id)
            if span.name == "service.request"
        ][0]
        assert root.status == "error"

    def test_unknown_session_failure_is_synthesised(self, manager, relation):
        open_session(manager, relation)
        scheduler = PlanScheduler(manager)
        request = QueryRequest("nope", plan="Identity", epsilon=0.1, request_id="r1")
        (error,) = scheduler.execute_batch([request], return_exceptions=True)
        assert isinstance(error, KeyError)
        failure = RequestFailure.of(error)
        assert failure.batch_index == 0 and failure.session_id == "nope"

    def test_rejection_attaches_failure(self, manager, relation):
        session = open_session(manager, relation)
        scheduler = PlanScheduler(manager)
        bad = identity_request(session, workload_params={"n": N // 2})
        with pytest.raises(ValueError) as excinfo:
            scheduler.execute(bad)
        failure = RequestFailure.of(excinfo.value)
        assert failure.error_type == "ValueError" and failure.epsilon_spent == 0.0


#: (case, outcome label, plan, exception type) — one row per request outcome.
OUTCOME_CASES = [
    ("answered", "ok", "Identity", None),
    ("replayed", "cached", "Identity", None),
    ("domain_mismatch", "rejected", "Identity", ValueError),
    ("failed_mid_plan", "error", "DAWA", InjectedFault),
    ("plan_error", "error", "Identity", InjectedFault),
]


def arrange_outcome(scheduler, session, faults, case):
    """The request that ends in ``case``'s outcome on ``session``."""
    request = identity_request(session)
    if case == "replayed":
        scheduler.execute(request)  # pays for the answer the replay reuses
    elif case == "domain_mismatch":
        request = identity_request(session, workload_params={"n": N // 2})
    elif case == "failed_mid_plan":
        # DAWA spends over two charges; the second raises after the first
        # has spent, so the request fails holding a partial spend.
        faults.arm("kernel.before_charge", after=1)
        request = replace(identity_request(session, epsilon=0.4), plan="DAWA")
    elif case == "plan_error":
        faults.arm("kernel.before_charge", times=1)
    return request


class TestOutcomeLedger:
    """Every request outcome leaves the same three traces behind: one audit
    event, one ``service_requests`` tick under its outcome label and, on
    failure, the original exception carrying its ``RequestFailure``."""

    @pytest.mark.parametrize("case, outcome, plan, error", OUTCOME_CASES)
    def test_outcome_is_ledgered_counted_and_attached(
        self, manager, relation, case, outcome, plan, error
    ):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, tracer=Tracer(), executor="inline")
        session = open_session(manager, relation)
        session.kernel.fault_injector = faults
        request = arrange_outcome(scheduler, session, faults, case)
        mark = session.kernel.budget_snapshot().num_measurements
        consumed = session.budget_consumed()

        response = exc = None
        if error is None:
            response = scheduler.execute(request)
        else:
            with pytest.raises(error) as excinfo:
                scheduler.execute(request)
            exc = excinfo.value
        end = session.kernel.budget_snapshot().num_measurements
        spent = session.budget_consumed() - consumed

        event = session.events[-1]
        assert event.cached is (outcome == "cached")
        assert event.error == ("" if error is None else error.__name__)
        assert event.trace_id is not None
        if case in ("answered", "failed_mid_plan"):
            assert end > mark
            assert (event.history_start, event.history_end) == (mark, end)
            assert event.epsilon_spent == pytest.approx(spent) and spent > 0
        else:
            assert end == mark and spent == 0.0 and event.epsilon_spent == 0.0
            start = session.events[0].history_start if case == "replayed" else mark
            assert (event.history_start, event.history_end) == (start, start)
        if case == "failed_mid_plan":
            assert event.epsilon_spent < request.epsilon
        # Only requests that reached the plan carry a noise seed.
        assert (event.seed is None) is (case == "domain_mismatch")

        assert event.outcome == outcome
        counters = telemetry_report(scheduler)["metrics"]["counters"]
        assert counters[f"service_requests{{outcome={outcome},plan={plan},tenant=acme}}"] == 1

        if error is None:
            assert response.cached is event.cached
            assert response.seed == event.seed
            assert response.epsilon_spent == event.epsilon_spent
            assert response.trace_id == event.trace_id
            assert event.duration_seconds == response.elapsed_seconds
        else:
            failure = RequestFailure.of(exc)
            assert failure is not None
            assert failure.error_type == error.__name__
            assert failure.epsilon_spent == event.epsilon_spent
            assert failure.trace_id == event.trace_id

    @pytest.mark.parametrize("case, outcome, plan, error", OUTCOME_CASES)
    def test_outcome_feeds_latency_queue_wait_and_odometer(
        self, manager, relation, case, outcome, plan, error
    ):
        """The exported metrics gain the duration, queue wait and spend the
        audit event records — once per request, whatever its outcome."""
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, executor="inline")
        session = open_session(manager, relation)
        session.kernel.fault_injector = faults
        request = arrange_outcome(scheduler, session, faults, case)

        def read():
            report = telemetry_report(scheduler)
            histograms = report["metrics"]["histograms"]
            latency = histograms.get("service_request_latency_seconds{tenant=acme}")
            queue_wait = histograms.get("service_request_queue_wait_seconds{tenant=acme}")
            odometer = report["privacy_odometer"].get("acme")
            if odometer is None:
                return (0, 0.0, 0, 0.0, 0, 0.0)
            return (
                latency["count"], latency["sum"], queue_wait["count"], queue_wait["sum"],
                odometer["requests"], odometer["total_spent"],
            )

        before = read()
        if error is None:
            scheduler.execute(request)
        else:
            with pytest.raises(error):
                scheduler.execute(request)
        after = read()

        event = session.events[-1]
        assert after[0] == before[0] + 1 and after[2] == before[2] + 1
        assert after[1] - before[1] == pytest.approx(event.duration_seconds, abs=1e-12)
        assert after[3] - before[3] == pytest.approx(event.queue_wait_seconds, abs=1e-12)
        assert after[4] == before[4] + 1
        assert after[5] - before[5] == pytest.approx(event.epsilon_spent, abs=1e-12)
        assert telemetry_report(scheduler)["privacy_odometer"]["acme"]["unit"] == "epsilon"

    @pytest.mark.parametrize("case, outcome, plan, error", OUTCOME_CASES)
    def test_batch_slot_carries_the_same_outcome(
        self, manager, relation, case, outcome, plan, error
    ):
        """On the thread backend a batch slot ends exactly as ``execute``
        would: same ledger entry and counter, and a failed slot holds the
        original exception with its ledgered ``RequestFailure``."""
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, tracer=Tracer(), executor="thread", max_workers=2)
        try:
            session = open_session(manager, relation)
            session.kernel.fault_injector = faults
            request = arrange_outcome(scheduler, session, faults, case)
            events_before = len(session.events)
            (result,) = scheduler.execute_batch([request], return_exceptions=True)
        finally:
            scheduler.shutdown()

        assert len(session.events) == events_before + 1
        event = session.events[-1]
        assert event.cached is (outcome == "cached")
        assert event.error == ("" if error is None else error.__name__)
        assert event.trace_id is not None
        assert event.outcome == outcome
        counters = telemetry_report(scheduler)["metrics"]["counters"]
        assert counters[f"service_requests{{outcome={outcome},plan={plan},tenant=acme}}"] == 1

        if error is None:
            assert not isinstance(result, Exception)
            assert result.cached is event.cached
            assert result.trace_id == event.trace_id
            assert event.duration_seconds == result.elapsed_seconds
        else:
            assert isinstance(result, error)
            failure = RequestFailure.of(result)
            assert failure is not None
            assert failure.batch_index == 0 and failure.ledgered
            assert failure.request_id == event.request_id
            assert failure.error_type == error.__name__
            assert failure.epsilon_spent == event.epsilon_spent
            assert failure.trace_id == event.trace_id


class TestTelemetryReport:
    def test_report_structure_and_metrics(self, manager, relation):
        session = open_session(manager, relation)
        scheduler = PlanScheduler(manager, tracer=Tracer())
        scheduler.execute(identity_request(session))
        scheduler.execute(identity_request(session))  # a replay of the release
        report = telemetry_report(scheduler)
        assert set(report) == {"metrics", "privacy_odometer", "caches", "tracer"}
        counters = report["metrics"]["counters"]
        assert counters["service_requests{outcome=ok,plan=Identity,tenant=acme}"] == 1
        assert counters["service_requests{outcome=cached,plan=Identity,tenant=acme}"] == 1
        # A replay is counted once, as a cached request; the only cache
        # counters are the artifact cache's own fields.
        assert {key for key in counters if key.startswith("cache_")} == {
            f"cache_{field}{{cache=artifact}}" for field in ("hits", "misses")
        }
        assert counters["cache_misses{cache=artifact}"] == scheduler.artifact_cache.misses
        assert counters["cache_hits{cache=artifact}"] == scheduler.artifact_cache.hits
        latency = report["metrics"]["histograms"][
            "service_request_latency_seconds{tenant=acme}"
        ]
        assert latency["count"] == 2 and latency["p95"] > 0
        odometer = report["privacy_odometer"]["acme"]
        assert odometer["unit"] == "epsilon"
        assert odometer["total_spent"] == pytest.approx(0.1)
        assert odometer["requests"] == 2  # the budget-free replay ticks too
        assert report["caches"] == {"artifact": scheduler.artifact_cache.stats}
        assert report["tracer"]["enabled"] is True
        assert report["tracer"]["num_traces"] == 2

    def test_zcdp_session_reports_rho(self, manager, relation):
        session = manager.create_session(
            "zeta", relation, epsilon_total=1.0, seed=0, accountant="zcdp"
        )
        scheduler = PlanScheduler(manager)
        scheduler.execute(identity_request(session))
        odometer = telemetry_report(scheduler)["privacy_odometer"]["zeta"]
        assert odometer["unit"] == "rho"

    def test_report_is_json_serialisable(self, manager, relation):
        session = open_session(manager, relation)
        scheduler = PlanScheduler(manager, tracer=Tracer())
        scheduler.execute(identity_request(session))
        json.dumps(telemetry_report(scheduler), default=float)


def assert_metrics_are_the_events(scheduler, events_by_tenant):
    """Every number the scheduler exports about requests equals its count,
    or ``math.fsum``, over ``events_by_tenant``'s audit events."""
    report = telemetry_report(scheduler)
    counters = report["metrics"]["counters"]
    histograms = report["metrics"]["histograms"]
    text = prometheus_text(request_metrics(scheduler))
    expected = Counter(
        (tenant, event.plan, event.outcome)
        for tenant, events in events_by_tenant.items()
        for event in events
    )
    exported = {key: value for key, value in counters.items() if key.startswith("service_requests{")}
    assert exported == {
        f"service_requests{{outcome={outcome},plan={plan},tenant={tenant}}}": count
        for (tenant, plan, outcome), count in expected.items()
    }
    for (tenant, plan, outcome), count in expected.items():
        labels = f'outcome="{outcome}",plan="{plan}",tenant="{tenant}"'
        assert f"service_requests_total{{{labels}}} {float(count)!r}\n" in text
    for field in ("hits", "misses"):
        assert counters[f"cache_{field}{{cache=artifact}}"] == getattr(scheduler.artifact_cache, field)
    assert set(report["privacy_odometer"]) == set(events_by_tenant)
    for tenant, events in events_by_tenant.items():
        for name, field in (
            ("service_request_latency_seconds", "duration_seconds"),
            ("service_request_queue_wait_seconds", "queue_wait_seconds"),
        ):
            values = [getattr(event, field) for event in events]
            histogram = histograms[f"{name}{{tenant={tenant}}}"]
            assert histogram["count"] == len(values)
            assert histogram["sum"] == math.fsum(values)
            buckets = np.bincount(
                np.searchsorted(DEFAULT_LATENCY_BUCKETS, values, side="left"),
                minlength=len(DEFAULT_LATENCY_BUCKETS) + 1,
            )
            assert list(histogram["buckets"].values()) == buckets.tolist()
            assert f'{name}_sum{{tenant="{tenant}"}} {math.fsum(values)!r}\n' in text
            assert f'{name}_count{{tenant="{tenant}"}} {len(values)}\n' in text
        odometer = report["privacy_odometer"][tenant]
        assert odometer["requests"] == len(events)
        assert odometer["total_spent"] == math.fsum(event.epsilon_spent for event in events)
        assert odometer["plans"] == {
            plan: {
                "spent": math.fsum(e.epsilon_spent for e in events if e.plan == plan),
                "requests": sum(1 for e in events if e.plan == plan),
            }
            for plan in {event.plan for event in events}
        }


class TestMetricsAreTheAuditTrail:
    """The exported request metrics are a view of the sessions' audit events:
    whatever happened to a request, the event is its only record."""

    @pytest.mark.parametrize("case, outcome, plan, error", OUTCOME_CASES)
    def test_every_outcome(self, manager, relation, case, outcome, plan, error):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, tracer=Tracer(), executor="inline")
        session = open_session(manager, relation)
        session.kernel.fault_injector = faults
        request = arrange_outcome(scheduler, session, faults, case)
        if error is None:
            scheduler.execute(request)
        else:
            with pytest.raises(error):
                scheduler.execute(request)
        assert session.events[-1].outcome == outcome
        assert_metrics_are_the_events(scheduler, {"acme": session.events})

    def test_batch_with_an_orphan_claim(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, executor="inline")
        session = open_session(manager, relation)
        session.kernel.fault_injector = faults
        # The DAWA request dies after its first charge; the Identity one after
        # it answers, and a replay of it is served from the cache.
        faults.arm("kernel.after_charge", after=1, times=1, exception=WorkerDeath())
        results = scheduler.execute_batch(
            [
                identity_request(session, epsilon=0.2),
                replace(identity_request(session, epsilon=0.4), plan="DAWA"),
                identity_request(session, epsilon=0.2),
            ],
            return_exceptions=True,
        )
        assert isinstance(results[1], WorkerDeath) and results[2].cached
        orphans = [event for event in session.events if event.plan == "(orphaned)"]
        assert len(orphans) == 1 and orphans[0].outcome == "error"
        assert orphans[0].epsilon_spent > 0
        assert_metrics_are_the_events(scheduler, {"acme": session.events})

    def test_journal_only_restore(self, relation, tmp_path):
        """A restored scheduler's metrics are its restored audit trail."""
        live = PlanScheduler(SessionManager(), executor="inline")
        journal = PrivacyJournal(tmp_path / "j.wal")
        session = live.manager.create_session("acme", relation, 4.0, seed=0, journal=journal)
        live.execute(identity_request(session))
        live.execute(identity_request(session))
        with pytest.raises(ValueError):
            live.execute(identity_request(session, workload_params={"n": N // 2}))
        journal.close()

        restored_scheduler = PlanScheduler(SessionManager(), executor="inline")
        restored = restored_scheduler.restore_session(
            relation, journal=PrivacyJournal(tmp_path / "j.wal")
        )
        assert restored.events == session.events
        assert [event.outcome for event in restored.events] == ["ok", "cached", "rejected"]
        assert_metrics_are_the_events(restored_scheduler, {"acme": restored.events})
        assert (
            telemetry_report(restored_scheduler)["privacy_odometer"]
            == telemetry_report(live)["privacy_odometer"]
        )

    def test_closed_sessions_still_count(self, manager, relation):
        scheduler = PlanScheduler(manager, executor="inline")
        first = open_session(manager, relation)
        scheduler.execute(identity_request(first))
        scheduler.execute(identity_request(first))
        closed = manager.close(first.session_id)
        second = open_session(manager, relation, seed=1)
        scheduler.execute(identity_request(second, epsilon=0.3))
        zeta = manager.create_session("zeta", relation, 1.0, seed=2, accountant="zcdp")
        scheduler.execute(identity_request(zeta))
        manager.close(zeta.session_id)
        assert first.session_id not in manager and zeta.session_id not in manager
        assert_metrics_are_the_events(
            scheduler, {"acme": closed.events + second.events, "zeta": zeta.events}
        )
        assert telemetry_report(scheduler)["privacy_odometer"]["zeta"]["unit"] == "rho"
