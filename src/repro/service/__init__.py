"""Multi-tenant DP query service on top of the protected kernel (EKTELO Sec. 4).

The paper's architecture separates vetted client-side plans from the kernel
that enforces privacy; this package adds the layer a production deployment
needs between the two — sessions, scheduling, caching and auditing:

* :class:`SessionManager` / :class:`Session` — per-tenant kernels, each with
  its own epsilon ledger, lock, audit trail and releases: the answers it
  released, by request key, as :class:`CachedAnswer` records that an
  identical request replays at zero ε (post-processing), each indexed
  against the kernel's query history;
* :class:`QueryRequest` / :class:`QueryResponse` — the data-free wire API;
* :class:`PlanScheduler` — the execution core: each request runs as
  straight-line code (closed checks, session lock, root span, replay probe,
  plan run, release, journal commit) driven by an executor backend
  (:mod:`~repro.service.executors`: ``inline``/``thread``), with
  deterministic per-request noise seeding that makes answers byte-identical
  on either backend;
* :class:`ArtifactCache` — the one shared cache, LRU, of data-independent
  constructions (workload matrices, strategy-keyed Gram factorisations);
* :mod:`~repro.service.export` — structured audit export and ledger
  reconciliation built on :mod:`repro.private.audit`, plus
  :func:`telemetry_report` for the scheduler's operational snapshot.

Observability: construct the scheduler with a
:class:`~repro.telemetry.Tracer` to get one hierarchical trace per request
(``QueryResponse.trace_id``) spanning plan stages, kernel measurements and
solver calls, structurally identical on either backend.  Request metrics
(outcome counts, latency/queue-wait histograms, the per-tenant
privacy-spend odometer) are a view of the sessions' audit trail, computed
at export by :func:`request_metrics` and :func:`telemetry_report`, replays
included as ``cached`` outcomes; the artifact cache's counters are its own
fields.  See :mod:`repro.telemetry`.

Typical usage::

    from repro.dataset import small_census
    from repro.service import PlanScheduler, QueryRequest, SessionManager

    manager = SessionManager()
    session = manager.create_session("acme", small_census(), epsilon_total=1.0)
    scheduler = PlanScheduler(manager)
    response = scheduler.execute(
        QueryRequest(session.session_id, plan="Identity", epsilon=0.1,
                     workload="prefix", workload_params={"n": 50})
    )
"""

from .api import QueryRequest, QueryResponse, RequestFailure
from .artifact_cache import ArtifactCache
from .executors import ExecutorBackend, InlineExecutor, ThreadExecutor, make_executor
from .export import reconcile, request_metrics, session_report, telemetry_report
from .scheduler import PlanScheduler, derive_request_seed
from .session import CachedAnswer, Session, SessionClosedError, SessionEvent, SessionManager

__all__ = [
    "QueryRequest",
    "QueryResponse",
    "RequestFailure",
    "Session",
    "SessionEvent",
    "SessionManager",
    "PlanScheduler",
    "derive_request_seed",
    "ExecutorBackend",
    "InlineExecutor",
    "ThreadExecutor",
    "make_executor",
    "CachedAnswer",
    "ArtifactCache",
    "SessionClosedError",
    "session_report",
    "reconcile",
    "request_metrics",
    "telemetry_report",
]
