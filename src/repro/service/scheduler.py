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
                       → journal commit (in ``finally``, in the root span's
                         ``durability.commit`` child, under the lock)
    _run_locked        replay probe → plan run → release

The request id travels beside the request through both: ``execute`` and
``execute_batch`` assign the session's next id to a request that has none,
without copying or changing the client's :class:`QueryRequest`.

Every outcome — answered, replayed, rejected or failed — is accounted for
by one helper, :meth:`PlanScheduler._ledger`: it records the
:class:`~repro.service.session.SessionEvent`, its ``outcome`` included, and,
on failure, attaches a :class:`~repro.service.api.RequestFailure` to the
exception.  The event is the request's only record: the request metrics are
computed from the audit trail when exported.

Answers are byte-identical on both backends: every request's noise derives
solely from :func:`derive_request_seed` (session base seed, request id,
query identity) — nothing scheduling-dependent feeds it.

Requests on the *same* session serialise on its lock (sequential composition
demands it); requests on different sessions genuinely run in parallel.
Requests rejected for a workload/domain mismatch are ledgered: an errored
zero-spend :class:`~repro.service.session.SessionEvent` with an empty
history span.  (Malformed requests that never resolve to a plan or workload
— unknown names — still raise before anything touches the session ledger.)

**Releases.**  A ``reuse`` request first probes its session's releases
(:attr:`~repro.service.session.Session.releases`) under the session lock it
already holds: a hit replays the released answer at zero ε as a ``cached``
event.  A fresh answer becomes a
:class:`~repro.service.session.CachedAnswer` built from the plan's result
— its arrays, seed and ``info`` — and is handed to
:meth:`~repro.service.session.Session.release` before the response leaves
the lock.  One helper, :meth:`PlanScheduler._respond`, builds every
:class:`~repro.service.api.QueryResponse`, fresh or replayed: it copies the
release's arrays and ``info``, so nothing a client holds reaches the
release, and takes the rest from the request, the session and the moment.
The scheduler keeps no state per session, so closing, journaling and
restoring a session need only the session.

**Durability.**  On a journal-attached session, the request's charges,
measurement rows, release and event reach the journal as one record,
committed before the response (or exception) leaves the lock — so nothing a
client ever saw can be lost, and nothing lost was ever seen.  An answered
request whose commit fails raises after its answer was released: asking
again for the same query replays that answer at zero ε (a failed append's
parts ride in the replay's commit).

**Observability.**  Constructed with a :class:`~repro.telemetry.Tracer`, the
scheduler opens a ``service.request`` root span per request and activates the
tracer on the executing thread, so every instrumented seam underneath — plan
stages, kernel measurements with their ε/cost, solver calls with Gram
cache hits — attaches to the request's trace; the trace id is returned on
``QueryResponse.trace_id`` and stamped on the audit-trail event.  Request
metrics are computed from the audit trail at export
(:func:`~repro.service.export.request_metrics`); ``metrics`` keeps only
what no event records, the journal commit times.  Failures re-raise the
*original* exception with a structured
:class:`~repro.service.api.RequestFailure` attached (request id, batch slot,
trace id, spend), so batch callers keep their ``isinstance`` checks and
still get the context.
"""

from __future__ import annotations

import hashlib
import math
import time
from concurrent.futures import Future
from dataclasses import replace
from typing import Sequence

from ..durability.faults import FaultInjector, WorkerDeath
from ..durability.records import restore_session
from ..plans.registry import make_plan
from ..telemetry.metrics import Histogram, MetricsRegistry
from ..telemetry.spans import NOOP_SPAN, NULL_TRACER, NullTracer, Tracer, activate
from .api import QueryRequest, QueryResponse, RequestFailure
from .artifact_cache import ArtifactCache
from .executors import ExecutorBackend, make_executor
from .session import CachedAnswer, Session, SessionClosedError, SessionEvent, SessionManager

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
        artifact_cache: ArtifactCache | None = None,
        max_workers: int = 4,
        tracer: Tracer | NullTracer | None = None,
        fault_injector: FaultInjector | None = None,
        executor: str | ExecutorBackend | None = None,
    ):
        self.manager = manager
        self.artifact_cache = artifact_cache if artifact_cache is not None else ArtifactCache()
        self.max_workers = max_workers
        #: per-request tracing; the no-op NULL_TRACER (the default) records
        #: nothing and costs one shared no-op handle per instrumented seam.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: what the audit trail does not record: journal commit seconds per
        #: tenant (each histogram resolved once).
        self.metrics = MetricsRegistry()
        self._commit_seconds: dict[str, Histogram] = {}
        #: crash-harness seam (``scheduler.worker``); None in production.
        self.fault_injector = fault_injector
        #: what drives requests ("inline", "thread" or an ExecutorBackend
        #: instance; default: a thread pool of ``max_workers``).
        self.executor = make_executor(executor, max_workers=max_workers)

    def shutdown(self) -> None:
        """Release the executor backend's pools once their running requests
        finish (idempotent)."""
        self.executor.shutdown()

    # ------------------------------------------------------------------
    # Durability.
    # ------------------------------------------------------------------
    def restore_session(self, table, journal) -> Session:
        """Rebuild a session from its journal into this scheduler's manager.

        See :func:`repro.durability.restore_session`; the restored session
        is verified against the reconciliation oracle and adopted by the
        manager, its releases restored for zero-ε replay.  This also moves a
        live session to another scheduler: drain-close it (``begin_close``,
        then ``manager.close``), attach a journal if it has none
        (:meth:`~repro.service.session.Session.attach_journal` writes the
        whole session) and restore that journal on the other scheduler.
        """
        return restore_session(table, journal, manager=self.manager)

    # ------------------------------------------------------------------
    # Synchronous path.
    # ------------------------------------------------------------------
    def execute(self, request: QueryRequest) -> QueryResponse:
        """Answer one request, blocking until done."""
        session = self.manager.get(request.session_id)
        request_id = request.request_id
        if request_id is None:
            request_id = session.next_request_id()
        queued_at = time.perf_counter()
        return self._execute_guarded(session, request, request_id, queued_at)

    def _execute_guarded(
        self,
        session: Session,
        request: QueryRequest,
        request_id: str,
        queued_at: float,
    ) -> QueryResponse:
        """One request, under ``request_id``, start to finish, in the order
        the module docs give."""
        if self.fault_injector is not None:
            self.fault_injector.fire("scheduler.worker", request_id)
        if session.closing:
            raise SessionClosedError(
                f"session {session.session_id!r} is closed; "
                f"request {request_id!r} rejected"
            )
        with session.lock:
            # Re-checked under the lock: a drain-close marks the session
            # closing, then waits for this lock — anything still queued
            # behind it must reject, not execute against a closed ledger.
            if session.closing:
                raise SessionClosedError(
                    f"session {session.session_id!r} closed while request "
                    f"{request_id!r} was queued"
                )
            # The journal commit runs in a ``finally``, inside the root span
            # and before the lock releases: a crash after it loses nothing a
            # client ever saw.
            tracer = self.tracer
            if tracer is NULL_TRACER:
                try:
                    return self._run_locked(session, request, request_id, queued_at, NOOP_SPAN)
                finally:
                    self._commit_journal(session)
            with activate(tracer), tracer.span(
                "service.request",
                request_id=request_id,
                session=session.session_id,
                tenant=session.tenant,
                plan=request.plan,
                workload=request.workload,
                epsilon=float(request.epsilon),
            ) as root:
                try:
                    response = self._run_locked(session, request, request_id, queued_at, root)
                    root.set_attributes(
                        cached=response.cached,
                        epsilon_spent=float(response.epsilon_spent),
                    )
                    return response
                finally:
                    if session.journal is not None:  # no empty span when unjournaled
                        with tracer.span("durability.commit"):
                            self._commit_journal(session)

    def _run_locked(
        self,
        session: Session,
        request: QueryRequest,
        request_id: str,
        queued_at: float,
        root,
    ) -> QueryResponse:
        """The locked interior: replay probe → plan run → release.

        Called with the session lock held and the request's root span
        active.  This is the documented seam for tests (and subclasses) that
        need to stall or wrap plan execution while the lock is held —
        wrappers must preserve the signature.
        """
        start = time.perf_counter()
        queue_wait = max(start - queued_at, 0.0)
        key = request.cache_key()
        trace_id = root.trace_id
        kernel = session.kernel

        if request.reuse:
            if root is NOOP_SPAN:  # untraced: no tracer call on the way to a replay
                response = self._replay(
                    session, request, request_id, key, start, queue_wait, trace_id
                )
            else:
                with self.tracer.span("cache.probe") as probe:
                    response = self._replay(
                        session, request, request_id, key, start, queue_wait, trace_id
                    )
                    probe.set_attribute("hit", response is not None)
            if response is not None:
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
            mark = kernel.num_measurements
            self._ledger(
                session, request, request_id, "rejected", time.perf_counter() - start,
                queue_wait, trace_id, (mark, mark), exc=exc,
            )
            raise exc

        seed = derive_request_seed(session.base_seed, session.session_id, request_id, repr(key))
        kernel.reseed(seed)
        before = kernel.budget_snapshot()
        try:
            # The shared artifact cache rides along so plan inference reuses
            # data-independent Gram factorisations across requests and
            # tenants, keyed by each strategy's canonical strategy_key().
            with self.tracer.span("plan.run", plan=request.plan):
                result = plan.run(source, request.epsilon, gram_cache=self.artifact_cache)
            answers = (
                result.answer(workload_matrix) if workload_matrix is not None else None
            )
        except Exception as exc:
            # A request can fail after spending part (or all) of its budget —
            # a multi-measurement plan mid-run, or answer post-processing; the
            # ledger must still claim that spend (and its history rows) or
            # the audit would never reconcile again.
            after = kernel.budget_snapshot()
            self._ledger(
                session, request, request_id, "error", time.perf_counter() - start, queue_wait,
                trace_id, (before.num_measurements, after.num_measurements),
                spent=kernel.budget_charged_between(before, after), seed=seed, exc=exc,
            )
            raise

        after = kernel.budget_snapshot()
        spent = kernel.budget_charged_between(before, after)
        entry = CachedAnswer(
            key, result.x_hat, answers, seed, result.info,
            before.num_measurements, after.num_measurements,
        )
        response = self._respond(session, request, request_id, entry, start, trace_id, spent)
        session.release(entry)
        self._ledger(
            session, request, request_id, "ok", response.elapsed_seconds, queue_wait,
            trace_id, (entry.history_start, entry.history_end), spent=spent, seed=seed,
        )
        return response

    def _replay(
        self,
        session: Session,
        request: QueryRequest,
        request_id: str,
        key: tuple,
        start: float,
        queue_wait: float,
        trace_id: str | None,
    ) -> QueryResponse | None:
        """The released answer to ``request``, ledgered as a replay, or None."""
        entry = session.releases.get(key)
        if entry is None:
            return None
        response = self._respond(session, request, request_id, entry, start, trace_id)
        self._ledger(
            session, request, request_id, "cached", response.elapsed_seconds,
            queue_wait, trace_id, (entry.history_start, entry.history_start),
            seed=entry.seed,
        )
        return response

    @staticmethod
    def _respond(
        session: Session,
        request: QueryRequest,
        request_id: str,
        entry: CachedAnswer,
        start: float,
        trace_id: str | None,
        spent: float | None = None,
    ) -> QueryResponse:
        """The response handing out ``entry``: fresh, charged ``spent``, or
        a replay at zero ε when ``spent`` is None.

        Its arrays and ``info`` are copies of the release's; the plan and ε
        come from the request (equal to the release's: they key it) and the
        session id from the session.  The elapsed time and the session's
        accounting are read now, so a replay carries the spend of the
        moment, not that of the request that paid.
        """
        return QueryResponse(
            request_id=request_id,
            session_id=session.session_id,
            plan=request.plan,
            epsilon_requested=request.epsilon,
            epsilon_spent=0.0 if spent is None else spent,
            x_hat=entry.x_hat.copy(),
            answers=None if entry.answers is None else entry.answers.copy(),
            cached=spent is None,
            seed=entry.seed,
            info=dict(entry.info),
            elapsed_seconds=time.perf_counter() - start,
            accounting=session.accounting_report(),
            trace_id=trace_id,
        )

    def _ledger(
        self,
        session: Session,
        request: QueryRequest,
        request_id: str,
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
        ``rejected`` or ``error``): record its audit event and, on failure,
        attach its :class:`RequestFailure` to ``exc``."""
        error = type(exc).__name__ if exc is not None else ""
        session.record(
            SessionEvent(
                request_id=request_id,
                plan=request.plan,
                workload=request.workload,
                epsilon_requested=request.epsilon,
                epsilon_spent=spent,
                outcome=outcome,
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
        if exc is not None:
            _attach_failure(
                exc,
                RequestFailure(
                    request_id=request_id,
                    session_id=session.session_id,
                    plan=request.plan,
                    error_type=error,
                    message=str(exc),
                    trace_id=trace_id,
                    epsilon_spent=spent,
                ),
            )

    def _commit_journal(self, session: Session) -> None:
        if session.journal is None:
            return
        started = time.perf_counter()
        session.commit()
        histogram = self._commit_seconds.get(session.tenant)
        if histogram is None:
            histogram = self._commit_seconds[session.tenant] = self.metrics.histogram(
                "service_journal_commit_seconds", tenant=session.tenant
            )
        histogram.observe(time.perf_counter() - started)

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
        # Each request resolves its session here, once, before dispatch: a
        # worker that starts after a drain-close dropped the session from
        # the manager still holds it, and so rejects with the
        # SessionClosedError that close documents.  An unknown session id
        # fails only its own slot.
        assigned: list[tuple[QueryRequest, str | None, Session | KeyError]] = []
        for request in requests:
            try:
                session = self.manager.get(request.session_id)
            except KeyError as exc:
                assigned.append((request, request.request_id, exc))
                continue
            request_id = request.request_id
            if request_id is None:
                request_id = session.next_request_id()
            assigned.append((request, request_id, session))
        queued_at = time.perf_counter()
        futures: list[Future] = []
        for request, request_id, session in assigned:
            if isinstance(session, KeyError):
                future = Future()
                future.set_exception(session)
            else:
                future = self.executor.submit(
                    self._execute_guarded, session, request, request_id, queued_at
                )
            futures.append(future)
        results: list[QueryResponse | Exception] = []
        for index, ((request, request_id, _), future) in enumerate(zip(assigned, futures)):
            try:
                results.append(future.result())
            except (Exception, WorkerDeath) as exc:
                failure = RequestFailure.of(exc)
                if failure is None:
                    # The request died before the accounting path could
                    # run — a dead worker, an unknown session id:
                    # synthesise the context and flag it un-ledgered.
                    failure = RequestFailure(
                        request_id=request_id,
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
        return orphans

