"""Data-independent plans (Fig. 2, plans #1-#6, #10, #11, #13).

All of these share the same three-operator idiom the paper highlights:
*query selection → Vector Laplace → least-squares inference*, differing only
in the selection operator.  Their error does not depend on the input data.
"""

from __future__ import annotations

import numpy as np

from ..matrix import Identity, LinearQueryMatrix, Total, ensure_matrix
from ..operators.selection import (
    greedy_h_select,
    h2_select,
    hb_select,
    hdmm_select,
    quadtree_select,
    uniform_grid_select,
    wavelet_select,
)
from ..private.protected import ProtectedDataSource
from .base import (
    Plan,
    PlanResult,
    infer_least_squares,
    measure_vector,
    plan_stage,
    public_strategy,
    with_representation,
)


class _SelectMeasureInferPlan(Plan):
    """Shared implementation of the select → measure → least-squares idiom.

    The selection reads only public inputs: the domain size and what
    :meth:`_public_inputs` names.  So with the scheduler's Gram cache the
    strategy comes from :func:`public_strategy`, built once per key and
    shared by every later request.  Inference follows the service policy of
    :func:`infer_least_squares`: a hierarchy (H2, HB, Greedy-H without a
    workload) takes the normal equations' tree kind; any other strategy
    LSMR stand-alone and shared normal equations when the scheduler provides
    its Gram cache.

    ``noise`` picks the measurement mechanism: the paper's Vector Laplace
    (default) or the Gaussian mechanism (L2-calibrated, charged through the
    kernel's accountant at its ``default_delta`` — requires an (ε, δ)/zCDP
    accountant).
    """

    def __init__(self, representation: str = "implicit", noise: str = "laplace"):
        self.representation = representation
        self.noise = noise

    def _select(self, n: int) -> LinearQueryMatrix:
        raise NotImplementedError

    def _public_inputs(self) -> tuple:
        """Every input :meth:`_select` reads besides the domain size."""
        return ()

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        n = source.domain_size
        gram_cache = kwargs.get("gram_cache")
        with plan_stage("select", plan=self.name) as span:
            measurements = public_strategy(
                gram_cache,
                (self.name, n, *self._public_inputs()),
                lambda: self._select(n),
                self.representation,
            )
            span.set_attribute("num_measurements", int(measurements.shape[0]))
        answers = measure_vector(source, measurements, epsilon, noise=self.noise)
        estimate = infer_least_squares(measurements, answers, gram_cache=gram_cache)
        return self._wrap(
            source,
            before,
            estimate.x_hat,
            num_measurements=measurements.shape[0],
            inference_iterations=estimate.iterations,
        )


class IdentityPlan(Plan):
    """Plan #1 — the Laplace mechanism on every cell (no inference needed)."""

    name = "Identity"
    signature = "SI LM"
    plan_id = 1

    def __init__(self, representation: str = "implicit", noise: str = "laplace"):
        self.representation = representation
        self.noise = noise

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        measurements = with_representation(Identity(source.domain_size), self.representation)
        answers = measure_vector(source, measurements, epsilon, noise=self.noise)
        return self._wrap(source, before, answers, num_measurements=measurements.shape[0])


class UniformPlan(Plan):
    """Plan #6 — measure only the total and assume uniformity."""

    name = "Uniform"
    signature = "ST LM LS"
    plan_id = 6

    def __init__(self, noise: str = "laplace"):
        self.noise = noise

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        n = source.domain_size
        noisy_total = measure_vector(source, Total(n), epsilon, noise=self.noise)[0]
        x_hat = np.full(n, max(noisy_total, 0.0) / n)
        return self._wrap(source, before, x_hat, num_measurements=1)


class PriveletPlan(_SelectMeasureInferPlan):
    """Plan #2 — Haar wavelet measurements (Xiao et al. 2010)."""

    name = "Privelet"
    signature = "SP LM LS"
    plan_id = 2

    def _select(self, n: int) -> LinearQueryMatrix:
        return wavelet_select(n)


class H2Plan(_SelectMeasureInferPlan):
    """Plan #3 — binary hierarchy of interval counts (Hay et al. 2010)."""

    name = "H2"
    signature = "SH2 LM LS"
    plan_id = 3

    def _select(self, n: int) -> LinearQueryMatrix:
        return h2_select(n)


class HbPlan(_SelectMeasureInferPlan):
    """Plan #4 — hierarchy with optimised branching factor (Qardaji et al. 2013)."""

    name = "HB"
    signature = "SHB LM LS"
    plan_id = 4

    def _select(self, n: int) -> LinearQueryMatrix:
        return hb_select(n)


class GreedyHPlan(_SelectMeasureInferPlan):
    """Plan #5 — workload-tuned weighted hierarchy (Li et al. 2014)."""

    name = "Greedy-H"
    signature = "SG LM LS"
    plan_id = 5

    def __init__(
        self,
        workload_intervals: list[tuple[int, int]] | None = None,
        representation: str = "implicit",
        noise: str = "laplace",
    ):
        super().__init__(representation=representation, noise=noise)
        self.workload_intervals = workload_intervals

    def _public_inputs(self) -> tuple:
        return (tuple(map(tuple, self.workload_intervals or ())),)

    def _select(self, n: int) -> LinearQueryMatrix:
        return greedy_h_select(n, self.workload_intervals)


class QuadtreePlan(_SelectMeasureInferPlan):
    """Plan #10 — quadtree decomposition of a 2-D domain (Cormode et al. 2012)."""

    name = "QuadTree"
    signature = "SQ LM LS"
    plan_id = 10

    def __init__(
        self,
        shape: tuple[int, int],
        representation: str = "implicit",
        noise: str = "laplace",
    ):
        super().__init__(representation=representation, noise=noise)
        self.shape = shape

    def _public_inputs(self) -> tuple:
        return (tuple(self.shape),)

    def _select(self, n: int) -> LinearQueryMatrix:
        rows, cols = self.shape
        if rows * cols != n:
            raise ValueError("2-D shape does not match the vector's domain size")
        return quadtree_select(rows, cols)


class UniformGridPlan(Plan):
    """Plan #11 — a single flat grid with data-size-dependent granularity."""

    name = "UniformGrid"
    signature = "SU LM LS"
    plan_id = 11

    def __init__(self, shape: tuple[int, int], representation: str = "implicit", c: float = 10.0):
        self.shape = shape
        self.representation = representation
        self.c = c

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        rows, cols = self.shape
        n = source.domain_size
        if rows * cols != n:
            raise ValueError("2-D shape does not match the vector's domain size")
        # 10% of the budget estimates the total, the rest measures the grid.
        total_epsilon = 0.1 * epsilon
        noisy_total = max(source.vector_laplace(Total(n), total_epsilon)[0], 1.0)
        measurements = with_representation(
            uniform_grid_select(rows, cols, noisy_total, epsilon, c=self.c), self.representation
        )
        answers = source.vector_laplace(measurements, epsilon - total_epsilon)
        # The grid granularity follows the DP-noised total, so the strategy
        # varies across requests — keep its Gram out of the shared cache.
        estimate = infer_least_squares(measurements, answers)
        return self._wrap(
            source, before, estimate.x_hat, num_measurements=measurements.shape[0]
        )


class HdmmPlan(_SelectMeasureInferPlan):
    """Plan #13 — HDMM-style workload-optimised strategy (McKenna et al. 2018)."""

    name = "HDMM"
    signature = "SHD LM LS"
    plan_id = 13

    def __init__(
        self,
        workload: LinearQueryMatrix,
        representation: str = "implicit",
        noise: str = "laplace",
    ):
        super().__init__(representation=representation, noise=noise)
        self.workload = ensure_matrix(workload)

    def _public_inputs(self) -> tuple:
        return (self.workload.strategy_key(),)

    def _select(self, n: int) -> LinearQueryMatrix:
        if self.workload.shape[1] != n:
            raise ValueError("workload does not match the vector's domain size")
        return hdmm_select(self.workload)
