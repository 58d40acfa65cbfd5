"""The per-request execution pipeline: composable stages around any backend.

PR-1 grew the request lifecycle inside two scheduler methods; this module
factors it into middleware-style **stages** so robustness and telemetry wrap
every :class:`~repro.service.executors.ExecutorBackend` uniformly.  Each
stage implements ``run(ctx, proceed)`` — do its part, call ``proceed(ctx)``
for the rest of the chain, and unwind its bracket on the way out.  The
default chain is::

    guard → admission → breaker → session lock → journal commit → trace
          → [locked interior: deadline gate → cache probe → plan run]

and the unwind order is what the privacy story requires: the terminal stages
record their :class:`~repro.service.session.SessionEvent` and fold their one
outcome into the metrics registry, and ``journal commit`` flushes the
write-ahead journal *before* the response (or exception) leaves the session
lock — so nothing a client ever saw can be lost, and nothing lost was ever
seen.

The locked interior is reached through
:meth:`~repro.service.scheduler.PlanScheduler._run_locked`, the scheduler's
documented seam for tests that need to stall or wrap plan execution while
the session lock is held.

Stages hold a reference to the scheduler (``svc``) for its caches, metrics
and tracer; the :class:`RequestContext` carries everything
per-request.  The admission and breaker gates live in
:mod:`~repro.service.robustness` next to the primitives they wrap.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from ..durability.serialize import encode
from ..durability.snapshot import response_state
from ..plans.registry import make_plan
from ..private.exceptions import DeadlineExceededError
from ..telemetry.spans import NOOP_SPAN, NULL_TRACER, activate
from .api import QueryRequest, QueryResponse, RequestFailure
from .robustness import AdmissionGate, BreakerGate, SessionClosedError
from .session import Session, SessionEvent

__all__ = [
    "CacheProbeStage",
    "DeadlineGateStage",
    "GuardStage",
    "JournalCommitStage",
    "PlanRunStage",
    "RequestContext",
    "RequestPipeline",
    "RunLockedStage",
    "SessionLockStage",
    "TraceStage",
    "default_stages",
    "derive_request_seed",
    "locked_stages",
]


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


@dataclass
class RequestContext:
    """Everything one in-flight request carries between stages."""

    session: Session
    request: QueryRequest
    queued_at: float | None
    #: root span of the request's trace (NOOP_SPAN when tracing is off).
    root: object = NOOP_SPAN
    #: wall-clock anchor of the locked interior (set by the deadline gate).
    start: float = 0.0
    queue_wait: float = 0.0
    #: the deadline counts from scheduling — queue wait is latency the
    #: client experiences too.
    deadline_anchor: float = 0.0
    key: tuple = ()
    #: pin the root span's trace id (retries link attempts into one trace).
    trace_id: str | None = None
    #: 1-based attempt number under :meth:`PlanScheduler.execute_with_retry`.
    attempt: int = 1


class RequestPipeline:
    """A chain of stages executed middleware-style around one request."""

    def __init__(self, stages):
        self.stages = list(stages)

    def execute(
        self,
        session: Session,
        request: QueryRequest,
        queued_at: float | None,
        trace_id: str | None = None,
        attempt: int = 1,
    ) -> QueryResponse:
        ctx = RequestContext(
            session=session,
            request=request,
            queued_at=queued_at,
            trace_id=trace_id,
            attempt=attempt,
        )
        return self.run_ctx(ctx)

    def run_ctx(self, ctx: RequestContext) -> QueryResponse:
        return self._call(ctx, 0)

    def _call(self, ctx: RequestContext, index: int) -> QueryResponse:
        if index == len(self.stages):
            raise RuntimeError("pipeline has no terminal stage")
        stage = self.stages[index]
        return stage.run(ctx, lambda c, _i=index + 1: self._call(c, _i))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RequestPipeline({' → '.join(s.name for s in self.stages)})"


class _Stage:
    name = "stage"

    def __init__(self, svc):
        self.svc = svc


class GuardStage(_Stage):
    """Fault-injection seam plus the pre-admission closed-session check."""

    name = "guard"

    def run(self, ctx, proceed):
        svc = self.svc
        if svc.fault_injector is not None:
            svc.fault_injector.fire("scheduler.worker", ctx.request.request_id)
        if ctx.session.closing:
            raise SessionClosedError(
                f"session {ctx.session.session_id!r} is closed; "
                f"request {ctx.request.request_id!r} rejected"
            )
        return proceed(ctx)


class SessionLockStage(_Stage):
    """Serialise on the session lock (sequential composition demands it)."""

    name = "lock"

    def run(self, ctx, proceed):
        with ctx.session.lock:
            # Re-checked under the lock: a drain-close marks the session
            # closing, then waits for this lock — anything still queued
            # behind it must reject, not execute against a closed ledger.
            if ctx.session.closing:
                raise SessionClosedError(
                    f"session {ctx.session.session_id!r} closed while request "
                    f"{ctx.request.request_id!r} was queued"
                )
            return proceed(ctx)


class JournalCommitStage(_Stage):
    """Commit the write-ahead journal before anything leaves the lock."""

    name = "journal-commit"

    def run(self, ctx, proceed):
        try:
            return proceed(ctx)
        finally:
            # A crash after this line loses nothing a client ever saw.
            self.svc._commit_journal(ctx.session)


class TraceStage(_Stage):
    """Open the ``service.request`` root span and activate the tracer."""

    name = "trace"

    def run(self, ctx, proceed):
        tracer = self.svc.tracer
        if tracer is NULL_TRACER:
            return proceed(ctx)
        request, session = ctx.request, ctx.session
        with activate(tracer), tracer.span(
            "service.request",
            trace_id=ctx.trace_id,
            request_id=request.request_id,
            session=session.session_id,
            tenant=session.tenant,
            plan=request.plan,
            workload=request.workload,
            epsilon=float(request.epsilon),
            attempt=ctx.attempt,
        ) as root:
            ctx.root = root
            response = proceed(ctx)
            root.set_attributes(
                cached=response.cached, epsilon_spent=float(response.epsilon_spent)
            )
            return response


class RunLockedStage(_Stage):
    """Hand off to the scheduler's ``_run_locked`` seam (the locked interior).

    Terminal stage of the *outer* chain.  Going through the scheduler method
    — rather than chaining the interior stages directly — keeps the seam
    tests and subclasses wrap to stall or observe plan execution while the
    session lock is held.
    """

    name = "run-locked"

    def run(self, ctx, proceed):
        return self.svc._run_locked(ctx.session, ctx.request, ctx.queued_at, ctx.root)


class DeadlineGateStage(_Stage):
    """Anchor request timing; reject requests that expired while queued."""

    name = "deadline-gate"

    def run(self, ctx, proceed):
        request = ctx.request
        ctx.start = time.perf_counter()
        ctx.queue_wait = (
            max(ctx.start - ctx.queued_at, 0.0) if ctx.queued_at is not None else 0.0
        )
        ctx.key = request.cache_key()
        ctx.deadline_anchor = ctx.queued_at if ctx.queued_at is not None else ctx.start
        if (
            request.deadline_seconds is not None
            and ctx.start - ctx.deadline_anchor > request.deadline_seconds
        ):
            raise self._reject_expired(ctx, ctx.start - ctx.deadline_anchor)
        return proceed(ctx)

    def _reject_expired(self, ctx, waited: float) -> DeadlineExceededError:
        """Ledger a request that timed out while queued (zero spend)."""
        session, request = ctx.session, ctx.request
        snapshot = session.kernel.budget_snapshot()
        duration = time.perf_counter() - ctx.start
        session.record(
            SessionEvent(
                request_id=request.request_id,
                plan=request.plan,
                workload=request.workload,
                epsilon_requested=request.epsilon,
                epsilon_spent=0.0,
                cached=False,
                seed=None,
                history_start=snapshot.num_measurements,
                history_end=snapshot.num_measurements,
                tag=request.tag,
                error="DeadlineExceededError",
                duration_seconds=duration,
                queue_wait_seconds=ctx.queue_wait,
                trace_id=ctx.root.trace_id,
            )
        )
        self.svc.metrics.counter(
            "service_deadline_timeouts", tenant=session.tenant, plan=request.plan
        ).inc()
        self.svc._observe(session, request, "timeout", duration, ctx.queue_wait, 0.0)
        exc = DeadlineExceededError(request.deadline_seconds, waited)
        _attach_failure(
            exc,
            RequestFailure(
                request_id=request.request_id,
                session_id=session.session_id,
                plan=request.plan,
                error_type="DeadlineExceededError",
                message=str(exc),
                trace_id=ctx.root.trace_id,
            ),
        )
        return exc


class CacheProbeStage(_Stage):
    """Replay an identical already-released answer at zero additional ε."""

    name = "cache-probe"

    def run(self, ctx, proceed):
        request, session = ctx.request, ctx.session
        if not request.reuse:
            return proceed(ctx)
        entry = self.svc.measurement_cache.lookup(session, ctx.key)
        if entry is None:
            return proceed(ctx)
        response = self.svc.measurement_cache.replay(entry, request.request_id)
        # The cached response carries the accounting snapshot of the
        # request that paid for it; refresh to the session's current
        # state (a replay spends nothing, but spend may have moved
        # since the entry was stored).
        response.accounting = session.accounting_report()
        response.trace_id = ctx.root.trace_id
        duration = time.perf_counter() - ctx.start
        response.elapsed_seconds = duration
        session.record(
            SessionEvent(
                request_id=request.request_id,
                plan=request.plan,
                workload=request.workload,
                epsilon_requested=request.epsilon,
                epsilon_spent=0.0,
                cached=True,
                seed=response.seed,
                history_start=entry.history_start,
                history_end=entry.history_start,
                tag=request.tag,
                duration_seconds=duration,
                queue_wait_seconds=ctx.queue_wait,
                trace_id=ctx.root.trace_id,
            )
        )
        self.svc._observe(session, request, "cached", duration, ctx.queue_wait, 0.0)
        return response


class PlanRunStage(_Stage):
    """Terminal stage: run the plan, account for it exactly, release and
    journal the answer."""

    name = "plan-run"

    def run(self, ctx, proceed):
        svc = self.svc
        session, request = ctx.session, ctx.request
        workload_matrix = (
            svc.artifact_cache.workload(request.workload, request.workload_params)
            if request.workload is not None
            else None
        )
        plan = make_plan(request.plan, request.plan_params)
        source = session.vector_source()
        if workload_matrix is not None and workload_matrix.shape[1] != source.domain_size:
            raise self._reject_mismatch(ctx, workload_matrix, source)

        seed = derive_request_seed(
            session.base_seed, session.session_id, request.request_id, repr(ctx.key)
        )
        session.kernel.reseed(seed)
        kernel = session.kernel
        before = kernel.budget_snapshot()
        try:
            if request.deadline_seconds is not None:
                kernel.deadline = ctx.deadline_anchor + request.deadline_seconds
                kernel.deadline_started = ctx.deadline_anchor
            # The shared artifact cache rides along so plan inference reuses
            # data-independent Gram factorisations across requests and
            # tenants, keyed by each strategy's canonical strategy_key().
            with svc.tracer.span("plan.run", plan=request.plan):
                result = plan.run(source, request.epsilon, gram_cache=svc.artifact_cache)
            answers = (
                result.answer(workload_matrix) if workload_matrix is not None else None
            )
            if kernel.deadline is not None:
                now = time.perf_counter()
                if now > kernel.deadline:
                    # Timed out after the last charge: the answer is complete
                    # but late; it is withheld, and the spend below is the
                    # request's true (here: full) partial spend.
                    raise DeadlineExceededError(
                        request.deadline_seconds, now - ctx.deadline_anchor
                    )
        except Exception as exc:
            self._ledger_failure(ctx, exc, seed, before)
            raise
        finally:
            kernel.deadline = None
            kernel.deadline_started = None
        after = kernel.budget_snapshot()
        duration = time.perf_counter() - ctx.start
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
            elapsed_seconds=duration,
            accounting=session.accounting_report(),
            trace_id=ctx.root.trace_id,
        )
        svc.measurement_cache.store(
            session, ctx.key, response, before.num_measurements, after.num_measurements
        )
        if session.journal is not None:
            # Journal the release before the event that claims it: restores
            # replay the answer byte-identical into the cache, so an
            # identical post-crash request costs zero additional ε.
            session.journal.append(
                {
                    "kind": "release",
                    "key": encode(ctx.key),
                    "response": encode(response_state(response)),
                    "history_start": before.num_measurements,
                    "history_end": after.num_measurements,
                }
            )
        session.record(
            SessionEvent(
                request_id=request.request_id,
                plan=request.plan,
                workload=request.workload,
                epsilon_requested=request.epsilon,
                epsilon_spent=response.epsilon_spent,
                cached=False,
                seed=seed,
                history_start=before.num_measurements,
                history_end=after.num_measurements,
                tag=request.tag,
                duration_seconds=duration,
                queue_wait_seconds=ctx.queue_wait,
                trace_id=ctx.root.trace_id,
            )
        )
        svc._observe(
            session, request, "ok", duration, ctx.queue_wait, response.epsilon_spent
        )
        return response

    # ------------------------------------------------------------------
    # Terminal error accounting.
    # ------------------------------------------------------------------
    def _reject_mismatch(self, ctx, workload_matrix, source) -> ValueError:
        """Reject before any budget is spent: a mismatched workload can only
        produce garbage answers (or crash after the charge).  The rejection
        is still ledgered — an errored zero-spend event with an empty history
        span — so the audit trail has one entry per scheduled request,
        exactly like plans that fail mid-run."""
        session, request = ctx.session, ctx.request
        snapshot = session.kernel.budget_snapshot()
        duration = time.perf_counter() - ctx.start
        session.record(
            SessionEvent(
                request_id=request.request_id,
                plan=request.plan,
                workload=request.workload,
                epsilon_requested=request.epsilon,
                epsilon_spent=0.0,
                cached=False,
                seed=None,
                history_start=snapshot.num_measurements,
                history_end=snapshot.num_measurements,
                tag=request.tag,
                error="ValueError",
                duration_seconds=duration,
                queue_wait_seconds=ctx.queue_wait,
                trace_id=ctx.root.trace_id,
            )
        )
        self.svc._observe(session, request, "rejected", duration, ctx.queue_wait, 0.0)
        exc = ValueError(
            f"workload {request.workload!r} has {workload_matrix.shape[1]} columns "
            f"but session {session.session_id!r} has a {source.domain_size}-cell domain"
        )
        _attach_failure(
            exc,
            RequestFailure(
                request_id=request.request_id,
                session_id=session.session_id,
                plan=request.plan,
                error_type="ValueError",
                message=str(exc),
                trace_id=ctx.root.trace_id,
            ),
        )
        return exc

    def _ledger_failure(self, ctx, exc: Exception, seed: int, before) -> None:
        """A request can fail after spending part (or all) of its budget — a
        multi-measurement plan mid-run, or answer post-processing; the ledger
        must still claim that spend (and its history rows) or the audit would
        never reconcile again."""
        session, request = ctx.session, ctx.request
        after = session.kernel.budget_snapshot()
        spent = session.kernel.budget_charged_between(before, after)
        duration = time.perf_counter() - ctx.start
        session.record(
            SessionEvent(
                request_id=request.request_id,
                plan=request.plan,
                workload=request.workload,
                epsilon_requested=request.epsilon,
                epsilon_spent=spent,
                cached=False,
                seed=seed,
                history_start=before.num_measurements,
                history_end=after.num_measurements,
                tag=request.tag,
                error=type(exc).__name__,
                duration_seconds=duration,
                queue_wait_seconds=ctx.queue_wait,
                trace_id=ctx.root.trace_id,
            )
        )
        if isinstance(exc, DeadlineExceededError):
            self.svc.metrics.counter(
                "service_deadline_timeouts",
                tenant=session.tenant,
                plan=request.plan,
            ).inc()
            outcome = "timeout"
        else:
            outcome = "error"
        self.svc._observe(session, request, outcome, duration, ctx.queue_wait, spent)
        _attach_failure(
            exc,
            RequestFailure(
                request_id=request.request_id,
                session_id=session.session_id,
                plan=request.plan,
                error_type=type(exc).__name__,
                message=str(exc),
                trace_id=ctx.root.trace_id,
                epsilon_spent=spent,
            ),
        )


def default_stages(svc) -> list:
    """The outer chain: guards → robustness gates → lock/durability →
    telemetry → locked interior.  Order is load-bearing; see the module
    docstring."""
    return [
        GuardStage(svc),
        AdmissionGate(svc),
        BreakerGate(svc),
        SessionLockStage(svc),
        JournalCommitStage(svc),
        TraceStage(svc),
        RunLockedStage(svc),
    ]


def locked_stages(svc) -> list:
    """The locked interior (entered via ``PlanScheduler._run_locked``)."""
    return [
        DeadlineGateStage(svc),
        CacheProbeStage(svc),
        PlanRunStage(svc),
    ]
