"""Request/response API of the query service.

A :class:`QueryRequest` names everything needed to answer a workload under a
session's budget — the plan (by registry name), its parameters, the workload
(by builder name), and the privacy budget to spend — without ever carrying
private data.  A :class:`QueryResponse` carries the noisy estimate, the
workload answers, and the accounting the client needs to reconcile its own
ledger against the service's audit export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..workload.builders import _freeze, workload_cache_key


@dataclass
class QueryRequest:
    """One unit of work submitted to the :class:`~repro.service.PlanScheduler`.

    ``reuse`` opts into replay: when an identical request has already been
    answered for the same session, the session's release of the prior noisy
    answer is returned without spending any further budget (post-processing of an
    already-released measurement).  ``request_id`` may be supplied by the
    client for end-to-end tracing; otherwise the session assigns a sequential
    one, which also pins down the deterministic per-request noise seed.
    """

    session_id: str
    plan: str
    epsilon: float
    plan_params: Mapping[str, object] = field(default_factory=dict)
    workload: str | None = None
    workload_params: Mapping[str, object] = field(default_factory=dict)
    request_id: str | None = None
    reuse: bool = True
    tag: str = ""

    def cache_key(self) -> tuple:
        """Hashable identity of the *answer* this request asks for.

        Two requests with equal keys (within one session) ask for the same
        noisy release: same plan, same parameters, same workload, same budget.
        The request id and tag are deliberately excluded.
        """
        workload_part = (
            workload_cache_key(self.workload, self.workload_params)
            if self.workload is not None
            else None
        )
        return (
            "query",
            self.plan,
            _freeze(dict(self.plan_params)),
            workload_part,
            float(self.epsilon),
        )


@dataclass
class QueryResponse:
    """Outcome of one scheduled request.

    ``epsilon_spent`` is the exact root-level budget delta the execution
    caused on the session's kernel — zero for cache hits — in the session
    accountant's *native* units (bare ε under pure/approximate accounting, ρ
    under zCDP).  ``accounting`` carries the session-level spend after this
    request in both unit systems, including the accountant's converted
    ``(ε, δ)`` statement, so clients of non-pure tenants can reconcile a DP
    guarantee without re-deriving the calculus.  ``seed`` is the noise seed
    the kernel used, so any response can be reproduced offline.

    .. warning:: Disclosing the seed assumes the recipient is trusted (the
       analyst/operator reproducibility story this reproduction targets):
       whoever holds it can regenerate the Laplace draws and subtract the
       noise.  A deployment serving untrusted clients must strip ``seed``
       (and ``info["seed"]``) at the wire boundary and keep it in the
       server-side audit trail only.
    """

    request_id: str
    session_id: str
    plan: str
    epsilon_requested: float
    epsilon_spent: float
    x_hat: np.ndarray
    answers: np.ndarray | None
    cached: bool
    seed: int | None
    info: dict
    elapsed_seconds: float
    #: session-level accounting snapshot taken after this request (accountant
    #: name, native spend, converted (ε, δ)); the scheduler sets it on every
    #: response, a replay's taken at the replay.
    accounting: dict | None = None
    #: id of the request's trace when the scheduler ran with tracing enabled
    #: (pass it to ``scheduler.tracer.trace(...)`` / the span exporters);
    #: None when tracing is off.
    trace_id: str | None = None

    @property
    def payload(self) -> np.ndarray:
        """What the client usually wants: workload answers if a workload was
        named, otherwise the full data-vector estimate."""
        return self.answers if self.answers is not None else self.x_hat


@dataclass(frozen=True)
class RequestFailure:
    """Structured context of one failed request, attached to its exception.

    The scheduler sets this as ``exc.request_failure`` on any exception a
    request raises (and re-raises the *original* exception, so callers keep
    matching on concrete types like ``BudgetExceededError``).  In a batch,
    ``batch_index`` is the request's slot in the submitted sequence — the
    context an opaque exception used to lose — and ``trace_id`` links the
    failure to its spans when tracing was on.  ``epsilon_spent`` is whatever
    the partial run charged before failing (already ledgered as an errored
    :class:`~repro.service.session.SessionEvent`).
    """

    request_id: str | None
    session_id: str
    plan: str
    error_type: str
    message: str
    trace_id: str | None = None
    epsilon_spent: float = 0.0
    batch_index: int | None = None
    #: False when the failure bypassed the scheduler's accounting path (a
    #: dead worker, an unknown session) — the batch collector then claims
    #: any orphaned spend so the session still reconciles.
    ledgered: bool = True

    @staticmethod
    def of(exc: BaseException) -> "RequestFailure | None":
        """The failure attached to ``exc`` by the scheduler, if any."""
        return getattr(exc, "request_failure", None)
