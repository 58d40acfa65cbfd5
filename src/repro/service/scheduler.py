"""Plan scheduling: execute query requests against sessions.

The :class:`PlanScheduler` is the service's **execution core**.  It composes
two layers:

1. the **session directory** — a
   :class:`~repro.service.session.SessionManager`;
2. an **executor backend** (:mod:`repro.service.executors`) — how many
   threads drive requests: ``inline`` (sequential, deterministic baseline)
   or ``thread`` (a persistent driver pool).

Each request runs as straight-line code in two methods, in a fixed,
privacy-correct order::

    _execute_guarded   worker fault seam → closed check → session lock
                       → closed re-check → root span → _run_locked
                       → journal commit (in ``finally``, still under the lock)
    _run_locked        deadline check → cache probe → plan run

Every outcome — answered, replayed, rejected, timed out or failed — is
accounted for by one helper, :meth:`PlanScheduler._ledger`: it records the
:class:`~repro.service.session.SessionEvent`, folds the outcome into the
metrics registry and, on failure, attaches a
:class:`~repro.service.api.RequestFailure` to the exception.

Answers are byte-identical on both backends: every request's noise derives
solely from :func:`derive_request_seed` (session base seed, request id,
query identity) — nothing scheduling-dependent feeds it.

Requests on the *same* session serialise on its lock (sequential composition
demands it); requests on different sessions genuinely run in parallel.
Requests rejected for a workload/domain mismatch are ledgered: an errored
zero-spend :class:`~repro.service.session.SessionEvent` with an empty
history span.  (Malformed requests that never resolve to a plan or workload
— unknown names — still raise before anything touches the session ledger.)

**Robustness.**

* *Durability* — on a journal-attached session, charges/measurements/events
  stream into the write-ahead journal as they happen, the released answer is
  journaled right after it enters the measurement cache, and the journal is
  committed before the response (or exception) leaves the lock — so nothing
  a client ever saw can be lost, and nothing lost was ever seen.
* *Deadlines* — ``QueryRequest.deadline_seconds`` is enforced from the
  moment of scheduling: requests that expire while queued are rejected with
  a ledgered zero-spend event; mid-plan, the kernel refuses further charges
  past the deadline and the errored event claims the true partial spend.
* *Retries* — :meth:`execute_with_retry` re-attempts transient faults under
  a :class:`~repro.service.robustness.RetryPolicy`; the retried attempt
  keeps the same request id and forces cache reuse, so a completed answer is
  replayed rather than re-charged (budget-safe by construction).

**Observability.**  Constructed with a :class:`~repro.telemetry.Tracer`, the
scheduler opens a ``service.request`` root span per request and activates the
tracer on the executing thread, so every instrumented seam underneath — plan
stages, kernel measurements with their ε/cost, solver calls with Gram
cache hits — attaches to the request's trace; the trace id is returned on
``QueryResponse.trace_id`` and stamped on the audit-trail event.  A
:class:`~repro.telemetry.MetricsRegistry` (always on; created internally
unless injected) aggregates per-tenant request latency and queue-wait
histograms, outcome counters, cache hit/miss/eviction counters and the
per-tenant privacy-spend odometer.  Failures re-raise the *original*
exception with a structured :class:`~repro.service.api.RequestFailure`
attached (request id, batch slot, trace id, spend), so batch callers keep
their ``isinstance`` checks and still get the context.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import replace
from typing import Sequence

from ..durability.faults import FaultInjector, WorkerDeath
from ..durability.snapshot import release_record, snapshot_session
from ..plans.registry import make_plan
from ..private.exceptions import DeadlineExceededError
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.spans import NOOP_SPAN, NULL_TRACER, NullTracer, Tracer, activate
from .api import QueryRequest, QueryResponse, RequestFailure
from .artifact_cache import ArtifactCache
from .executors import ExecutorBackend, make_executor
from .measurement_cache import MeasurementCache
from .robustness import RetryPolicy, SessionClosedError
from .session import Session, SessionEvent, SessionManager

__all__ = ["PlanScheduler", "derive_request_seed"]


def derive_request_seed(
    base_seed: int, session_id: str, request_id: str, query_material: str = ""
) -> int:
    """Deterministic 64-bit seed for one request's noise.

    ``query_material`` mixes the query's identity (the request cache key)
    into the seed, so a client reusing a request id for a *different* query
    can never replay the same noise stream across distinct measurements —
    while the same (session, request id, query) triple always reproduces the
    same response.  Nothing scheduling-dependent feeds the derivation: not
    the executor backend, not the thread — which is what makes answers
    byte-identical no matter where a request runs.
    """
    material = f"{base_seed}:{session_id}:{request_id}:{query_material}".encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _attach_failure(exc: BaseException, failure: RequestFailure) -> None:
    """Best-effort structured context on the original exception object."""
    try:
        exc.request_failure = failure  # type: ignore[attr-defined]
    except AttributeError:  # pragma: no cover - slotted exception classes
        pass


class PlanScheduler:
    """Executes :class:`QueryRequest`\\ s synchronously or in batches."""

    def __init__(
        self,
        manager: SessionManager,
        measurement_cache: MeasurementCache | None = None,
        artifact_cache: ArtifactCache | None = None,
        max_workers: int = 4,
        tracer: Tracer | NullTracer | None = None,
        metrics: MetricsRegistry | None = None,
        fault_injector: FaultInjector | None = None,
        executor: str | ExecutorBackend | None = None,
    ):
        self.manager = manager
        self.measurement_cache = measurement_cache if measurement_cache is not None else MeasurementCache()
        self.artifact_cache = artifact_cache if artifact_cache is not None else ArtifactCache()
        self.max_workers = max_workers
        #: per-request tracing; the no-op NULL_TRACER (the default) records
        #: nothing and costs one shared no-op handle per instrumented seam.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: cross-request aggregates (latency/queue-wait histograms per tenant,
        #: outcome and cache counters, privacy-spend odometer); always on —
        #: a handful of dict operations per request.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.measurement_cache.bind_metrics(self.metrics)
        self.artifact_cache.bind_metrics(self.metrics)
        #: crash-harness seam (``scheduler.worker``); None in production.
        self.fault_injector = fault_injector
        #: what drives requests ("inline", "thread" or an ExecutorBackend
        #: instance; default: a thread pool of ``max_workers``).
        self.executor = make_executor(executor, max_workers=max_workers)

    def shutdown(self, wait: bool = True) -> None:
        """Release the executor backend's pools (idempotent)."""
        self.executor.shutdown(wait=wait)

    def close_session(self, session_id: str, drain: bool = True) -> Session:
        """Close a session and drop its cached releases.

        Prefer this over :meth:`SessionManager.close` when a scheduler is in
        play — the manager alone cannot reach the measurement cache, and a
        long-running service would otherwise accumulate unreachable entries
        for every closed session.  See :meth:`SessionManager.close` for the
        in-flight drain semantics.
        """
        session = self.manager.close(session_id, drain=drain)
        self.measurement_cache.invalidate_session(session)
        return session

    # ------------------------------------------------------------------
    # Durability.
    # ------------------------------------------------------------------
    def snapshot_session(self, session_id: str) -> dict:
        """Snapshot a session's records, including its cached releases."""
        return snapshot_session(
            self.manager.get(session_id), measurement_cache=self.measurement_cache
        )

    def restore_session(
        self,
        table,
        snapshot: dict | None = None,
        journal=None,
        strict: bool = True,
    ) -> Session:
        """Rebuild a crashed session into this scheduler's manager and cache.

        See :func:`repro.durability.restore_session`; the restored session
        is verified against the reconciliation oracle and adopted by the
        manager, and its released answers land back in the measurement cache
        for zero-ε replay.  This also moves a live session to another
        scheduler: stop its traffic (``session.begin_close()``), take
        :meth:`snapshot_session`, :meth:`close_session` it and restore the
        snapshot on the other scheduler.
        """
        from ..durability.snapshot import restore_session as _restore_session

        session = _restore_session(
            table,
            snapshot=snapshot,
            journal=journal,
            manager=self.manager,
            measurement_cache=self.measurement_cache,
            strict=strict,
        )
        self.metrics.counter("service_recoveries", tenant=session.tenant).inc()
        return session

    # ------------------------------------------------------------------
    # Synchronous path.
    # ------------------------------------------------------------------
    def execute(self, request: QueryRequest) -> QueryResponse:
        """Answer one request, blocking until done."""
        session = self.manager.get(request.session_id)
        if request.request_id is None:
            request = replace(request, request_id=session.next_request_id())
        queued_at = time.perf_counter()
        return self._execute_guarded(session, request, queued_at)

    def execute_with_retry(
        self, request: QueryRequest, policy: RetryPolicy | None = None
    ) -> QueryResponse:
        """Answer one request, retrying transient faults budget-safely.

        Every attempt reuses the same request id — hence the same derived
        noise seed and the same cache key — and forces ``reuse=True``, so an
        attempt that failed *after* its answer was stored (e.g. a journal
        fsync hiccup) is satisfied from the measurement cache at zero
        additional ε on the retry.  Budget a failed attempt did spend is
        already ledgered as an errored event; a retry never re-charges it.
        """
        policy = policy if policy is not None else RetryPolicy()
        session = self.manager.get(request.session_id)
        if request.request_id is None:
            request = replace(request, request_id=session.next_request_id())
        rng = policy.rng()
        failures = 0
        trace_id: str | None = None
        while True:
            try:
                return self._execute_guarded(
                    session,
                    request,
                    time.perf_counter(),
                    trace_id=trace_id,
                    attempt=failures + 1,
                )
            except Exception as exc:
                failures += 1
                # Link the retry into the originating attempt's trace: every
                # attempt's root span carries the same trace id plus its own
                # ``attempt`` attribute, so a retried request reads as one
                # trace instead of N disconnected ones.
                if trace_id is None:
                    failure = RequestFailure.of(exc)
                    if failure is not None and failure.trace_id is not None:
                        trace_id = failure.trace_id
                if failures >= policy.max_attempts or not policy.is_retryable(exc):
                    raise
                self.metrics.counter(
                    "service_retries", tenant=session.tenant, plan=request.plan
                ).inc()
                time.sleep(policy.delay(failures, rng))
                request = replace(request, reuse=True)

    def _execute_guarded(
        self,
        session: Session,
        request: QueryRequest,
        queued_at: float | None,
        trace_id: str | None = None,
        attempt: int = 1,
    ) -> QueryResponse:
        """One request, start to finish, in the order the module docs give."""
        if self.fault_injector is not None:
            self.fault_injector.fire("scheduler.worker", request.request_id)
        if session.closing:
            raise SessionClosedError(
                f"session {session.session_id!r} is closed; "
                f"request {request.request_id!r} rejected"
            )
        with session.lock:
            # Re-checked under the lock: a drain-close marks the session
            # closing, then waits for this lock — anything still queued
            # behind it must reject, not execute against a closed ledger.
            if session.closing:
                raise SessionClosedError(
                    f"session {session.session_id!r} closed while request "
                    f"{request.request_id!r} was queued"
                )
            try:
                tracer = self.tracer
                if tracer is NULL_TRACER:
                    return self._run_locked(session, request, queued_at, NOOP_SPAN)
                with activate(tracer), tracer.span(
                    "service.request",
                    trace_id=trace_id,
                    request_id=request.request_id,
                    session=session.session_id,
                    tenant=session.tenant,
                    plan=request.plan,
                    workload=request.workload,
                    epsilon=float(request.epsilon),
                    attempt=attempt,
                ) as root:
                    response = self._run_locked(session, request, queued_at, root)
                    root.set_attributes(
                        cached=response.cached,
                        epsilon_spent=float(response.epsilon_spent),
                    )
                    return response
            finally:
                # After the root span closes, before the lock releases: a
                # crash after this line loses nothing a client ever saw.
                self._commit_journal(session)

    def _run_locked(
        self,
        session: Session,
        request: QueryRequest,
        queued_at: float | None,
        root,
    ) -> QueryResponse:
        """The locked interior: deadline check → cache probe → plan run.

        Called with the session lock held and the request's root span
        active.  This is the documented seam for tests (and subclasses) that
        need to stall or wrap plan execution while the lock is held —
        wrappers must preserve the signature.
        """
        start = time.perf_counter()
        # The deadline counts from scheduling: queue wait is latency the
        # client experiences too.
        anchor = queued_at if queued_at is not None else start
        queue_wait = max(start - anchor, 0.0)
        key = request.cache_key()
        trace_id = root.trace_id
        kernel = session.kernel

        if request.deadline_seconds is not None and start - anchor > request.deadline_seconds:
            # Expired while queued: ledgered with zero spend.
            exc = DeadlineExceededError(request.deadline_seconds, start - anchor)
            mark = kernel.budget_snapshot().num_measurements
            self._ledger(
                session, request, "timeout", time.perf_counter() - start,
                queue_wait, trace_id, (mark, mark), exc=exc,
            )
            raise exc

        if request.reuse:
            entry = self.measurement_cache.lookup(session, key)
            if entry is not None:
                response = self.measurement_cache.replay(entry, request.request_id)
                # The cached response carries the accounting snapshot of the
                # request that paid for it; refresh to the session's current
                # state (a replay spends nothing, but spend may have moved
                # since the entry was stored).
                response.accounting = session.accounting_report()
                response.trace_id = trace_id
                response.elapsed_seconds = time.perf_counter() - start
                self._ledger(
                    session, request, "cached", response.elapsed_seconds,
                    queue_wait, trace_id, (entry.history_start, entry.history_start),
                    seed=response.seed,
                )
                return response

        workload_matrix = (
            self.artifact_cache.workload(request.workload, request.workload_params)
            if request.workload is not None
            else None
        )
        plan = make_plan(request.plan, request.plan_params)
        source = session.vector_source()
        if workload_matrix is not None and workload_matrix.shape[1] != source.domain_size:
            # Rejected before any budget is spent: a mismatched workload can
            # only produce garbage answers (or crash after the charge).  The
            # rejection is still ledgered, so the audit trail has one entry
            # per scheduled request, exactly like plans that fail mid-run.
            exc = ValueError(
                f"workload {request.workload!r} has {workload_matrix.shape[1]} columns "
                f"but session {session.session_id!r} has a {source.domain_size}-cell domain"
            )
            mark = kernel.budget_snapshot().num_measurements
            self._ledger(
                session, request, "rejected", time.perf_counter() - start,
                queue_wait, trace_id, (mark, mark), exc=exc,
            )
            raise exc

        seed = derive_request_seed(
            session.base_seed, session.session_id, request.request_id, repr(key)
        )
        kernel.reseed(seed)
        before = kernel.budget_snapshot()
        try:
            if request.deadline_seconds is not None:
                kernel.deadline = anchor + request.deadline_seconds
                kernel.deadline_started = anchor
            # The shared artifact cache rides along so plan inference reuses
            # data-independent Gram factorisations across requests and
            # tenants, keyed by each strategy's canonical strategy_key().
            with self.tracer.span("plan.run", plan=request.plan):
                result = plan.run(source, request.epsilon, gram_cache=self.artifact_cache)
            answers = (
                result.answer(workload_matrix) if workload_matrix is not None else None
            )
            if kernel.deadline is not None:
                now = time.perf_counter()
                if now > kernel.deadline:
                    # Timed out after the last charge: the answer is complete
                    # but late; it is withheld, and the spend below is the
                    # request's true (here: full) partial spend.
                    raise DeadlineExceededError(request.deadline_seconds, now - anchor)
        except Exception as exc:
            # A request can fail after spending part (or all) of its budget —
            # a multi-measurement plan mid-run, or answer post-processing; the
            # ledger must still claim that spend (and its history rows) or
            # the audit would never reconcile again.
            after = kernel.budget_snapshot()
            self._ledger(
                session, request,
                "timeout" if isinstance(exc, DeadlineExceededError) else "error",
                time.perf_counter() - start, queue_wait, trace_id,
                (before.num_measurements, after.num_measurements),
                spent=kernel.budget_charged_between(before, after), seed=seed, exc=exc,
            )
            raise
        finally:
            kernel.deadline = None
            kernel.deadline_started = None

        after = kernel.budget_snapshot()
        history = (before.num_measurements, after.num_measurements)
        response = QueryResponse(
            request_id=request.request_id,
            session_id=session.session_id,
            plan=request.plan,
            epsilon_requested=request.epsilon,
            epsilon_spent=kernel.budget_charged_between(before, after),
            x_hat=result.x_hat,
            answers=answers,
            cached=False,
            seed=seed,
            info=dict(result.info),
            elapsed_seconds=time.perf_counter() - start,
            accounting=session.accounting_report(),
            trace_id=trace_id,
        )
        self.measurement_cache.store(session, key, response, *history)
        if session.journal is not None:
            # Journal the release before the event that claims it: restores
            # replay the answer byte-identical into the cache, so an
            # identical post-crash request costs zero additional ε.
            session.journal.append(release_record(key, response, *history))
        self._ledger(
            session, request, "ok", response.elapsed_seconds, queue_wait, trace_id,
            history, spent=response.epsilon_spent, seed=seed,
        )
        return response

    def _ledger(
        self,
        session: Session,
        request: QueryRequest,
        outcome: str,
        duration: float,
        queue_wait: float,
        trace_id: str | None,
        history: tuple[int, int],
        spent: float = 0.0,
        seed: int | None = None,
        exc: BaseException | None = None,
    ) -> None:
        """Account for one request's outcome (``ok``, ``cached``,
        ``rejected``, ``timeout`` or ``error``): record its audit event, fold
        it into the metrics and, on failure, attach its
        :class:`RequestFailure` to ``exc``."""
        error = type(exc).__name__ if exc is not None else ""
        session.record(
            SessionEvent(
                request_id=request.request_id,
                plan=request.plan,
                workload=request.workload,
                epsilon_requested=request.epsilon,
                epsilon_spent=spent,
                cached=outcome == "cached",
                seed=seed,
                history_start=history[0],
                history_end=history[1],
                tag=request.tag,
                error=error,
                duration_seconds=duration,
                queue_wait_seconds=queue_wait,
                trace_id=trace_id,
            )
        )
        if outcome == "timeout":
            self.metrics.counter(
                "service_deadline_timeouts", tenant=session.tenant, plan=request.plan
            ).inc()
        self._observe(session, request, outcome, duration, queue_wait, spent)
        if exc is not None:
            _attach_failure(
                exc,
                RequestFailure(
                    request_id=request.request_id,
                    session_id=session.session_id,
                    plan=request.plan,
                    error_type=error,
                    message=str(exc),
                    trace_id=trace_id,
                    epsilon_spent=spent,
                ),
            )

    def _commit_journal(self, session: Session) -> None:
        journal = session.journal
        if journal is None:
            return
        started = time.perf_counter()
        journal.commit()
        self.metrics.histogram(
            "service_journal_commit_seconds", tenant=session.tenant
        ).observe(time.perf_counter() - started)

    def _observe(
        self,
        session: Session,
        request: QueryRequest,
        outcome: str,
        duration: float,
        queue_wait: float,
        spent: float,
    ) -> None:
        """Fold one finished (or failed) request into the metrics registry."""
        metrics = self.metrics
        tenant = session.tenant
        metrics.counter(
            "service_requests", tenant=tenant, plan=request.plan, outcome=outcome
        ).inc()
        metrics.histogram("service_request_latency_seconds", tenant=tenant).observe(duration)
        metrics.histogram("service_request_queue_wait_seconds", tenant=tenant).observe(
            queue_wait
        )
        unit = "rho" if session.kernel.accountant.name == "zcdp" else "epsilon"
        metrics.record_privacy_spend(tenant, request.plan, spent, unit=unit)

    # ------------------------------------------------------------------
    # Batched path.
    # ------------------------------------------------------------------
    def execute_batch(
        self,
        requests: Sequence[QueryRequest],
        return_exceptions: bool = False,
    ) -> list[QueryResponse | Exception]:
        """Answer a batch of requests concurrently, preserving input order.

        Driving fans out over the scheduler's executor backend (size it with
        ``PlanScheduler(max_workers=...)``).  Request ids (hence noise seeds)
        are assigned in submission order *before* dispatch, so batch results
        are reproducible no matter how the pool — or backend — interleaves
        execution.  (Exception: two *identical* ``reuse=True`` requests in
        one batch race for who computes and who replays, so which request
        id's seed produced the shared answer is scheduling-dependent — the
        answer itself is released only once either way.)

        Every request runs to completion (and is ledgered) regardless of the
        others.  With ``return_exceptions=True`` a failed request's slot
        holds the exception object instead of a response; otherwise the
        first failure (in input order) is re-raised after the whole batch
        has finished.  Either way the exception is the *original* one, with
        a :class:`~repro.service.api.RequestFailure` attached under
        ``request_failure`` carrying the request id, batch slot, originating
        trace id and any partial spend — so a failed slot never loses its
        batch context.

        A worker that dies outright (:class:`~repro.durability.WorkerDeath`,
        which bypasses all ``except Exception`` accounting) is handled here:
        the collector claims any budget/history the dead request charged but
        never recorded — via :meth:`Session.claim_orphans` — as one errored
        event with the true partial spend, so the session's ledger still
        reconciles exactly; its failure carries ``ledgered=False``.
        """
        assigned = []
        for request in requests:
            if request.request_id is None:
                session = self.manager.get(request.session_id)
                request = replace(request, request_id=session.next_request_id())
            assigned.append(request)
        if not assigned:
            return []
        queued_at = time.perf_counter()
        futures = [
            self.executor.submit(self._execute_assigned, request, queued_at)
            for request in assigned
        ]
        results: list[QueryResponse | Exception] = []
        for index, (request, future) in enumerate(zip(assigned, futures)):
            try:
                results.append(future.result())
            except (Exception, WorkerDeath) as exc:
                failure = RequestFailure.of(exc)
                if failure is None:
                    # The request died before the accounting path could
                    # run — a dead worker, an unknown session id:
                    # synthesise the context and flag it un-ledgered.
                    failure = RequestFailure(
                        request_id=request.request_id,
                        session_id=request.session_id,
                        plan=request.plan,
                        error_type=type(exc).__name__,
                        message=str(exc),
                        ledgered=False,
                    )
                if failure.batch_index is None:
                    failure = replace(failure, batch_index=index)
                if not failure.ledgered:
                    try:
                        orphans = self._claim_orphaned_spend(request, exc)
                    except Exception:
                        # A journal hiccup on the cleanup commit must not
                        # sink the batch: the claim events are already in
                        # the in-memory ledger, and a restore re-claims
                        # whatever didn't reach disk.
                        orphans = []
                    if orphans:
                        spent = math.fsum(o.epsilon_spent for o in orphans)
                        failure = replace(failure, epsilon_spent=spent)
                _attach_failure(exc, failure)
                results.append(exc)
        if not return_exceptions:
            for outcome in results:
                if isinstance(outcome, BaseException):
                    raise outcome
        return results

    def _claim_orphaned_spend(
        self, request: QueryRequest, exc: BaseException
    ) -> list[SessionEvent]:
        """Balance the ledger after a request died outside the except path."""
        try:
            session = self.manager.get(request.session_id)
        except KeyError:
            return []  # the request never resolved to a session
        orphans = session.claim_orphans(error=type(exc).__name__)
        if orphans:
            self._commit_journal(session)
            self.metrics.counter(
                "service_orphaned_requests", tenant=session.tenant
            ).inc()
        return orphans

    def _execute_assigned(
        self, request: QueryRequest, queued_at: float | None = None
    ) -> QueryResponse:
        session = self.manager.get(request.session_id)
        return self._execute_guarded(session, request, queued_at)
