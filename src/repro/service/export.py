"""Structured audit export of sessions.

:func:`session_report` gives a session's audit trail — the per-request
:class:`~repro.service.session.SessionEvent` ledger plus the kernel's
source-level :class:`~repro.private.audit.BudgetAudit` — as one plain
JSON-ready dictionary, and :func:`reconcile` checks the two accountings: the
sum of ``epsilon_spent`` over the service's events must equal the kernel's
own ``budget_consumed()`` exactly, or something double-charged or leaked.

The request metrics are a view of the same trail, computed at export
(:func:`request_metrics`, :func:`telemetry_report`): each count is a count
of events and each sum is ``math.fsum`` over them.
"""

from __future__ import annotations

import math
from dataclasses import asdict

from ..private.audit import audit_kernel
from ..telemetry.metrics import MetricsRegistry
from .session import RequestTally, Session


def session_report(session: Session) -> dict:
    """JSON-ready accounting of one session.

    Combines the service-level event ledger with the kernel-level audit from
    :func:`repro.private.audit.audit_kernel`, so a practitioner can trace any
    request down to the measurement records that paid for it.
    """
    with session.lock:  # consistent view while requests may be in flight
        return _session_report_locked(session)


def _timing_summary(events) -> dict:
    """Latency digest of a session's audit trail (durations are on-event)."""
    durations = sorted(event.duration_seconds for event in events)
    queue_waits = [event.queue_wait_seconds for event in events]
    if not durations:
        return {
            "num_timed": 0,
            "total_seconds": 0.0,
            "mean_seconds": 0.0,
            "p50_seconds": 0.0,
            "p95_seconds": 0.0,
            "max_seconds": 0.0,
            "total_queue_wait_seconds": 0.0,
            "max_queue_wait_seconds": 0.0,
        }

    def rank(q: float) -> float:
        # The nearest rank: the smallest duration with at least q of them at or below it.
        return durations[math.ceil(q * len(durations)) - 1]

    total = math.fsum(durations)
    return {
        "num_timed": len(durations),
        "total_seconds": total,
        "mean_seconds": total / len(durations),
        "p50_seconds": rank(0.50),
        "p95_seconds": rank(0.95),
        "max_seconds": durations[-1],
        "total_queue_wait_seconds": math.fsum(queue_waits),
        "max_queue_wait_seconds": max(queue_waits),
    }


def _session_report_locked(session: Session) -> dict:
    audit = audit_kernel(session.kernel)
    return {
        "session_id": session.session_id,
        "tenant": session.tenant,
        "closed": session.closed,
        "epsilon_total": session.epsilon_total,
        "budget_consumed": session.budget_consumed(),
        "budget_remaining": session.budget_remaining(),
        "num_requests": len(session.events),
        "num_cached": sum(1 for event in session.events if event.cached),
        # The tenant's accountant choice and its converted (ε, δ) statement:
        # budget totals above are native units (ρ for a zCDP session), this
        # section is the DP guarantee a practitioner quotes.
        "accounting": session.accounting_report(),
        # Wall-clock digest of the per-request timings stamped on every event
        # (duration under the session lock plus scheduling queue-wait).
        "telemetry": _timing_summary(session.events),
        "events": [asdict(event) for event in session.events],
        "kernel_audit": {
            "accountant": audit.accountant,
            "epsilon_total": audit.epsilon_total,
            "consumed_at_root": audit.consumed_at_root,
            "remaining": audit.remaining,
            "epsilon_reported": audit.epsilon_reported,
            "delta_reported": audit.delta_reported,
            "num_measurements": audit.num_measurements,
            "sources": [asdict(source) for source in audit.sources],
        },
    }


def reconcile(session: Session) -> dict:
    """Check the service ledger against the kernel ledger.

    Returns a report with ``exact`` True iff the sum of the events'
    ``epsilon_spent`` equals the kernel's root-level consumption (within
    :attr:`~repro.service.session.Session.ledger_slack`) *and* every
    measurement record is claimed by exactly one non-cached event's history
    span.
    """
    with session.lock:  # events and kernel counters must be read atomically
        events = list(session.events)
        kernel_total = session.budget_consumed()
        num_records = len(session.kernel.history())
    service_total = math.fsum(event.epsilon_spent for event in events)
    claimed = []
    for event in events:
        if not event.cached:
            claimed.extend(range(event.history_start, event.history_end))
    spans_exact = sorted(claimed) == list(range(num_records))
    return {
        "session_id": session.session_id,
        "service_epsilon": service_total,
        "kernel_epsilon": kernel_total,
        "difference": service_total - kernel_total,
        "history_records": num_records,
        "history_claimed": len(claimed),
        "exact": abs(service_total - kernel_total) <= session.ledger_slack and spans_exact,
    }


def request_metrics(scheduler) -> MetricsRegistry:
    """A :class:`PlanScheduler`'s metrics as of now, in a fresh registry:
    ``service_requests`` per tenant, plan and outcome and the per-tenant
    latency and queue-wait histograms from the audit trail, the artifact
    cache's hit/miss/eviction fields as ``cache_*{cache="artifact"}``
    counters, and the instruments of ``scheduler.metrics``.  Replays are
    the ``service_requests{outcome="cached"}`` count.
    :func:`~repro.telemetry.prometheus_text` serialises it."""
    return _metrics_view(scheduler, scheduler.manager.request_tallies())


def _metrics_view(scheduler, tallies: dict[str, RequestTally]) -> MetricsRegistry:
    view = MetricsRegistry()
    for tenant, tally in tallies.items():
        for (plan, outcome), n in tally.requests.items():
            view.counter("service_requests", tenant=tenant, plan=plan, outcome=outcome).inc(n)
        for histogram in tally.histograms(tenant):
            view.add(histogram)
    stats = scheduler.artifact_cache.stats
    for name in ("hits", "misses", "evictions"):
        view.counter(f"cache_{name}", cache="artifact").inc(stats[name])
    counters, _, histograms = scheduler.metrics.instruments()
    for instrument in counters + histograms:
        view.add(instrument)
    return view


def _odometer(tallies: dict[str, RequestTally]) -> dict:
    """Per-tenant spend in native units, in total and per plan."""
    odometer = {}
    for tenant, tally in tallies.items():
        plans = {plan: {"spent": math.fsum(p), "requests": 0} for plan, p in tally.spent.items()}
        for (plan, _), n in tally.requests.items():
            plans[plan]["requests"] += n
        odometer[tenant] = {
            "unit": tally.unit,
            "total_spent": math.fsum(x for partials in tally.spent.values() for x in partials),
            "requests": sum(tally.requests.values()),
            "plans": plans,
        }
    return odometer


def telemetry_report(scheduler) -> dict:
    """Operational snapshot of one :class:`~repro.service.PlanScheduler`.

    Complements the budget-centric audit exports with the service's runtime
    health: :func:`request_metrics`' snapshot (per-tenant latency and
    queue-wait histograms with percentile estimates, request outcome
    counters, cache counters), the per-tenant privacy-spend odometer, the
    artifact cache's stats, and the tracer's buffer stats.  Everything in the
    returned dict is JSON-ready.
    """
    tallies = scheduler.manager.request_tallies()
    return {
        "metrics": _metrics_view(scheduler, tallies).snapshot(),
        "privacy_odometer": _odometer(tallies),
        "caches": {"artifact": scheduler.artifact_cache.stats},
        "tracer": scheduler.tracer.stats(),
    }
