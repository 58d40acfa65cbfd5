"""Plan protocol and shared helpers.

A *plan* is EKTELO's unit of algorithm authorship: client-side code that
composes operators.  All plans in this reproduction implement a common
interface so the benchmark harness and registry can treat them uniformly:

* ``run(source, epsilon, **kwargs)`` takes a protected *vector* source (the
  output of T-Vectorize) and a privacy budget and returns a
  :class:`PlanResult` whose ``x_hat`` estimates the data vector;
* ``signature`` is the operator signature of Fig. 2 (for the transparency
  experiment / plan-signature table).

Plans never see raw data: every interaction goes through the
:class:`~repro.private.protected.ProtectedDataSource` handle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..matrix import DenseMatrix, LinearQueryMatrix, SparseMatrix, ensure_matrix
from ..private.protected import ProtectedDataSource
from ..telemetry.spans import NOOP_SPAN, trace_span

#: The matrix representations compared in the Sec. 10.2 scalability study.
REPRESENTATIONS = ("implicit", "sparse", "dense")

#: Noise mechanisms a plan's measurement step can resolve to.
NOISE_KINDS = ("laplace", "gaussian")

#: :func:`infer_least_squares` solves through the normal equations up to this
#: many columns.  The bound is set by their dense kind: its Gram takes n^2
#: doubles and its Cholesky factorisation O(n^3) time; the orthogonal-rows
#: and augmented kinds scale with the strategy's non-zeros instead.
_NORMAL_MAX_DOMAIN = 4096


def plan_stage(name: str, **attributes):
    """Open a ``plan.stage.<name>`` span on the active tracer (no-op default).

    Plans bracket their operator stages (select, partition, measure, infer,
    update rounds) with this helper so a traced service request decomposes
    into exactly the operator composition the paper's plan signatures
    describe.  With no active tracer it returns the shared no-op handle.
    """
    return trace_span(f"plan.stage.{name}", **attributes)


def split_budget(epsilon: float, share: float) -> tuple[float, float]:
    """Split a two-stage plan's budget into ``(share * epsilon, the rest)``.

    A share outside (0, 1) would leave one stage a non-positive budget and
    let the other spend more than ``epsilon``, so it is rejected here, before
    the plan's first charge.
    """
    if not 0.0 < share < 1.0:
        raise ValueError(f"a budget share must lie in (0, 1), got {share!r}")
    first = share * epsilon
    return first, epsilon - first


def measure_vector(
    source: ProtectedDataSource,
    queries: LinearQueryMatrix,
    epsilon: float,
    noise: str = "laplace",
) -> np.ndarray:
    """Run a plan's measurement step with the requested noise mechanism.

    Plans call this instead of ``source.vector_laplace`` directly so a single
    ``noise="laplace"|"gaussian"`` knob (threaded through ``plan_params`` by
    the service) switches the mechanism without touching plan logic:
    ``laplace`` is the paper's Vector Laplace; ``gaussian`` calibrates to the
    matrix's L2 sensitivity and charges through the kernel's accountant, at
    its ``default_delta`` (it is rejected outright under pure ε-DP
    accounting).  Inference is unaffected: a measurement matrix carries one
    uniform noise scale either way.
    """
    if noise == "laplace":
        with plan_stage("measure", noise=noise, epsilon=float(epsilon), rows=int(queries.shape[0])):
            return source.vector_laplace(queries, epsilon)
    if noise == "gaussian":
        with plan_stage("measure", noise=noise, epsilon=float(epsilon), rows=int(queries.shape[0])):
            return source.vector_gaussian(queries, epsilon)
    raise ValueError(f"unknown noise kind {noise!r}; expected one of {NOISE_KINDS}")


def infer_least_squares(measurements: LinearQueryMatrix, answers: np.ndarray, gram_cache=None):
    """Least-squares inference under the service's one solver policy.

    Plans call this instead of :func:`repro.operators.inference.least_squares`
    directly, so the policy lives here: with a ``gram_cache`` (the
    :class:`~repro.service.scheduler.PlanScheduler` passes its shared
    ``ArtifactCache``) and a square or tall system (``m >= n``) of at most
    :data:`_NORMAL_MAX_DOMAIN` columns, the normal equations, whose
    factorisation is built once per strategy and reused by every later
    request on it (keyed by the strategy's canonical
    :meth:`~repro.matrix.base.LinearQueryMatrix.strategy_key`); otherwise
    LSMR.  With the cache the factorisation amortises across requests, which
    is why square systems qualify; without one, every solve is LSMR.
    """
    from ..operators.inference import least_squares

    m, n = measurements.shape
    normal = gram_cache is not None and m >= n and n <= _NORMAL_MAX_DOMAIN
    method = "normal" if normal else "lsmr"
    with plan_stage("infer", method=method, shared_gram=gram_cache is not None) as span:
        estimate = least_squares(measurements, answers, method=method, gram_cache=gram_cache)
        if span is not NOOP_SPAN:  # the residual may cost a product with M
            span.set_attributes(
                iterations=int(estimate.iterations),
                residual_norm=float(estimate.residual_norm),
            )
        return estimate


def public_strategy(
    gram_cache, key: tuple, select: Callable[[], LinearQueryMatrix], representation: str
) -> LinearQueryMatrix:
    """A data-independent measurement strategy, built once per public key.

    ``select`` builds the strategy from public inputs alone (the selection is
    a Public operator), and ``key`` names the plan and every input
    ``select`` reads; the representation is added here.  With the
    scheduler's ``gram_cache`` (its shared ``ArtifactCache``) the strategy is
    built on the first request and every later request, of any tenant, gets
    the same object, with the CSR forms, transposes and strategy key it built
    lazily.  Stand-alone runs (``gram_cache=None``) build it per call.
    """

    def build() -> LinearQueryMatrix:
        return with_representation(ensure_matrix(select()), representation)

    if gram_cache is None:
        return build()
    return gram_cache.get_or_build(("public_strategy", *key, representation), build)


def with_representation(matrix: LinearQueryMatrix, representation: str) -> LinearQueryMatrix:
    """Materialise a measurement matrix in the requested representation.

    ``implicit`` leaves the matrix as constructed (possibly lazy); ``sparse``
    and ``dense`` materialise it, reproducing the representation switch of the
    Fig. 4 experiments.
    """
    if representation == "implicit":
        return matrix
    if representation == "sparse":
        return SparseMatrix(matrix.sparse())
    if representation == "dense":
        return DenseMatrix(matrix.dense())
    raise ValueError(f"unknown representation {representation!r}; expected one of {REPRESENTATIONS}")


@dataclass
class PlanResult:
    """Output of a plan execution."""

    #: estimate of the data vector the plan was run on
    x_hat: np.ndarray
    #: budget consumed by this plan (difference of kernel counters)
    budget_spent: float
    #: free-form diagnostics (measurement counts, partition sizes, ...)
    info: dict = field(default_factory=dict)

    def answer(self, workload: LinearQueryMatrix) -> np.ndarray:
        """Answers to a workload computed from the estimated data vector."""
        return ensure_matrix(workload).matvec(self.x_hat)


class Plan(ABC):
    """Base class of all plans (the rows of Fig. 2)."""

    #: human-readable plan name, e.g. ``"DAWA"``.
    name: str = "plan"
    #: operator signature following Fig. 2, e.g. ``"PD TR SG LM LS"``.
    signature: str = ""
    #: identifier in Fig. 2 (None for plans outside the figure).
    plan_id: int | None = None

    @abstractmethod
    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        """Execute the plan against a protected vector source."""

    def __call__(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        return self.run(source, epsilon, **kwargs)

    def _wrap(
        self, source: ProtectedDataSource, before: float, x_hat: np.ndarray, **info
    ) -> PlanResult:
        """Build a :class:`PlanResult`, computing the budget actually spent."""
        spent = source.budget_consumed() - before
        info.setdefault("seed", source.kernel.seed)
        return PlanResult(np.asarray(x_hat, dtype=np.float64), budget_spent=spent, info=info)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
