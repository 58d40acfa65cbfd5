"""Operator observability: trace parity, shared metrics.

The invariants of the observability layer across the execution core:

* **trace parity** — the same request produces *structurally identical* span
  trees (names, parentage, ε attributes) on the inline and thread backends;
* **one trace per request** — a request asked again after a failure is a new
  trace, and the failed one keeps its own, error-status root;
* **shared instruments** — driver threads racing a first lookup still get
  exactly one instrument per name and label set;
* **order-independent spend** — a request's ``epsilon_spent`` does not
  depend on how a batch interleaved.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.accounting import Cost
from repro.dataset import Attribute, Relation, Schema
from repro.durability import FaultInjector, InjectedFault
from repro.service import PlanScheduler, QueryRequest, RequestFailure, SessionManager
from repro.telemetry import (
    MetricsRegistry,
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

    def test_asking_again_after_a_failure_starts_a_new_trace(self, relation):
        manager = SessionManager()
        tracer = Tracer()
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, tracer=tracer, executor="inline")
        session = manager.create_session("acme", relation, 10.0, seed=7)
        session.kernel.fault_injector = faults
        faults.arm("kernel.before_charge", times=1)
        request = QueryRequest(session.session_id, plan="Identity", epsilon=0.1)
        with pytest.raises(InjectedFault) as raised:
            scheduler.execute(request)
        response = scheduler.execute(request)
        failed = RequestFailure.of(raised.value).trace_id
        assert failed is not None and failed != response.trace_id
        roots = [s for s in tracer.spans() if s.name == "service.request"]
        assert [(s.trace_id, s.status) for s in roots] == [
            (failed, "error"),
            (response.trace_id, "ok"),
        ]
        assert [event.trace_id for event in session.events] == [failed, response.trace_id]
        assert not any("attempt" in s.attributes for s in roots)

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
# Metrics state: instruments shared by the driver threads.
# ----------------------------------------------------------------------------
class TestMetricsState:
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
        doc = spans_to_chrome_trace(tracer.trace(response.trace_id))
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["pid"] for e in complete} == {1}
        process_names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert process_names == ["repro.service"]
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
                assert tracker.charge("root", Cost(epsilon))
            start = tracker.num_charges
            assert tracker.charge("root", Cost(0.2))
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
