"""Data-dependent plans (Fig. 2, plans #7-#9, #12).

These plans adapt to the input data, either through a data-dependent partition
(AHP, DAWA), through iterative selection (MWEM) or through a two-level grid
whose granularity reacts to observed counts (AdaptiveGrid).  MWEM's loop is
also the loop of its Sec. 9.1 variants (#18-#20 in
:mod:`repro.plans.mwem_variants`), which only switch its selection or
inference operator.
"""

from __future__ import annotations

import numpy as np

from ..matrix import DenseMatrix, Identity, LinearQueryMatrix, Total, VStack, ensure_matrix
from ..operators.inference import mult_weights, multiplicative_weights, nnls_with_total
from ..operators.partition import ahp_partition, dawa_partition
from ..operators.selection import adaptive_grid_select, greedy_h_select, uniform_grid_select
from ..operators.selection.worst_approx import augment_with_hierarchy, worst_approximated
from ..private.protected import ProtectedDataSource
from .base import (
    Plan,
    PlanResult,
    infer_least_squares,
    measure_vector,
    plan_stage,
    split_budget,
    with_representation,
)


class MwemPlan(Plan):
    """Plan #7 — Multiplicative Weights Exponential Mechanism (Hardt et al. 2012).

    Each round selects the worst-approximated workload query with the
    exponential mechanism (half the per-round budget), measures it (the other
    half) and re-infers the estimate from the whole measurement history with
    ``history_passes`` multiplicative-weights passes, starting from the last
    estimate.  A noisy total takes 5% of the budget unless ``total_records``
    is given.

    This is the one MWEM loop: the Sec. 9.1 variants #18-#20
    (:mod:`repro.plans.mwem_variants`) swap one operator each through two
    class switches.  ``augment_selection`` pads each round's query with
    disjoint intervals (``SW`` → ``SW SH2``) and ``use_nnls`` infers with
    non-negative least squares under the known total (``MW`` → ``NLS``).

    ``noise="gaussian"`` switches the per-round measurement to the Gaussian
    mechanism.  Under a zCDP accountant this is where MWEM's many small
    charges pay off: ρ-costs add up far slower than the ε-sum of basic
    composition, so the same nominal per-round parameters leave much more
    budget standing (see ``examples/accounting_gaussian.py``).
    """

    name = "MWEM"
    signature = "I:( SW LM MW )"
    plan_id = 7
    #: pad each selected query with disjoint interval queries (``SW SH2``)
    augment_selection = False
    #: infer with NNLS and the known total instead of multiplicative weights
    use_nnls = False

    def __init__(
        self,
        workload: LinearQueryMatrix,
        rounds: int = 10,
        total_records: float | None = None,
        history_passes: int = 10,
        noise: str = "laplace",
    ):
        self.workload = ensure_matrix(workload)
        self.rounds = rounds
        self.total_records = total_records
        self.history_passes = history_passes
        self.noise = noise

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        n = source.domain_size
        if self.workload.shape[1] != n:
            raise ValueError("workload does not match the vector's domain size")
        if self.rounds < 1:
            raise ValueError(f"MWEM needs at least one round, got rounds={self.rounds!r}")

        if self.total_records is None:
            # MWEM assumes a known total; estimate it with 5% of the budget.
            total_epsilon = 0.05 * epsilon
            total = max(source.vector_laplace(Total(n), total_epsilon)[0], 1.0)
            remaining = epsilon - total_epsilon
        else:
            total = float(self.total_records)
            remaining = epsilon

        x_hat = np.full(n, total / n)
        per_round = remaining / self.rounds
        matrices: list[LinearQueryMatrix] = []
        answers: list[np.ndarray] = []
        # Dense rows of the history, grown one block per round so each MW
        # inference extracts only the new rows; emptied for good once they
        # outgrow the cap of the row cache multiplicative_weights builds.
        rows: list[np.ndarray] = []

        for round_index in range(self.rounds):
            with plan_stage(
                "mwem_round", plan=self.name, round=round_index, epsilon=per_round
            ):
                _, row = worst_approximated(source, self.workload, x_hat, per_round / 2.0)
                if self.augment_selection:
                    measurement = augment_with_hierarchy(row, round_index, n)
                else:
                    measurement = DenseMatrix(row.reshape(1, -1))
                answers.append(
                    measure_vector(source, measurement, per_round / 2.0, noise=self.noise)
                )
                matrices.append(measurement)
                stacked = matrices[0] if len(matrices) == 1 else VStack(matrices)
                noisy = np.concatenate(answers)
                if self.use_nnls:
                    x_hat = nnls_with_total(stacked, noisy, total=total).x_hat
                    continue
                if stacked.shape[0] * n > mult_weights._ROW_CACHE_CELLS:
                    rows.clear()
                else:
                    rows.append(measurement.rows(np.arange(measurement.shape[0])))
                x_hat = multiplicative_weights(
                    stacked,
                    noisy,
                    total=total,
                    x0=x_hat,
                    iterations=self.history_passes,
                    row_cache=np.concatenate(rows) if rows else None,
                ).x_hat

        return self._wrap(
            source,
            before,
            x_hat,
            rounds=self.rounds,
            total_estimate=total,
            measured_queries=sum(m.shape[0] for m in matrices),
        )


class AhpPlan(Plan):
    """Plan #8 — AHP: data-adaptive clustering partition, then identity measurements."""

    name = "AHP"
    signature = "PA TR SI LM LS"
    plan_id = 8

    def __init__(
        self,
        partition_share: float = 0.5,
        eta: float = 0.35,
        gap_ratio: float = 0.5,
        representation: str = "implicit",
    ):
        self.partition_share = partition_share
        self.eta = eta
        self.gap_ratio = gap_ratio
        self.representation = representation

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        partition_epsilon, measure_epsilon = split_budget(epsilon, self.partition_share)
        with plan_stage("partition", plan=self.name, epsilon=partition_epsilon) as span:
            partition = ahp_partition(
                source, partition_epsilon, eta=self.eta, gap_ratio=self.gap_ratio
            )
            span.set_attribute("num_groups", int(partition.num_groups))
        reduced = source.reduce_by_partition(partition)
        measurements = with_representation(
            Identity(reduced.domain_size), self.representation
        )
        answers = reduced.vector_laplace(measurements, measure_epsilon)
        # The reduced domain size follows the per-request DP-noised partition,
        # so the Identity strategy is effectively one-off (and trivial for
        # LSMR anyway): keep it out of the shared Gram cache.
        estimate = infer_least_squares(measurements, answers)
        x_hat = partition.expand_vector(estimate.x_hat)
        return self._wrap(
            source, before, x_hat, num_groups=partition.num_groups
        )


class DawaPlan(Plan):
    """Plan #9 — DAWA: L1-optimal interval partition, then Greedy-H on the groups."""

    name = "DAWA"
    signature = "PD TR SG LM LS"
    plan_id = 9

    def __init__(
        self,
        workload_intervals: list[tuple[int, int]] | None = None,
        partition_share: float = 0.25,
        representation: str = "implicit",
    ):
        self.workload_intervals = workload_intervals
        self.partition_share = partition_share
        self.representation = representation

    def _reduced_intervals(self, partition) -> list[tuple[int, int]] | None:
        """Map the workload's ranges onto the reduced (group) domain."""
        if self.workload_intervals is None:
            return None
        groups = partition.groups
        reduced = []
        for lo, hi in self.workload_intervals:
            reduced.append((int(groups[lo]), int(groups[hi])))
        return reduced

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        partition_epsilon, measure_epsilon = split_budget(epsilon, self.partition_share)
        with plan_stage("partition", plan=self.name, epsilon=partition_epsilon) as span:
            partition = dawa_partition(source, partition_epsilon)
            span.set_attribute("num_groups", int(partition.num_groups))
        reduced = source.reduce_by_partition(partition)
        intervals = self._reduced_intervals(partition)
        with plan_stage("select", plan=self.name) as span:
            measurements = with_representation(
                greedy_h_select(reduced.domain_size, intervals), self.representation
            )
            span.set_attribute("num_measurements", int(measurements.shape[0]))
        answers = reduced.vector_laplace(measurements, measure_epsilon)
        # The DAWA partition is rebuilt from fresh DP noise on every request,
        # so its reduced-domain strategy is one-off: it stays out of the
        # shared cache.  Without a workload it is H2's hierarchy over the g
        # groups, so it takes the normal equations' tree kind, exact, whose
        # build plus solve beats LSMR at every g (a fresh tree each time;
        # median ms of 2,000, interleaved, 2-core x86-64 VM, one BLAS thread):
        #
        #     g             20      58     178     400
        #     tree        0.24    0.28    0.38    0.48
        #     LSMR        0.65    0.99    1.68    1.82
        estimate = infer_least_squares(measurements, answers)
        x_hat = partition.expand_vector(estimate.x_hat)
        return self._wrap(source, before, x_hat, num_groups=partition.num_groups)


class AdaptiveGridPlan(Plan):
    """Plan #12 — two-level grid whose second level adapts to first-level counts."""

    name = "AdaptiveGrid"
    signature = "SU LM LS PU TP[ SA LM]"
    plan_id = 12

    def __init__(
        self,
        shape: tuple[int, int],
        first_level_share: float = 0.5,
        representation: str = "implicit",
        c: float = 10.0,
        c2: float = 5.0,
    ):
        self.shape = shape
        self.first_level_share = first_level_share
        self.representation = representation
        self.c = c
        self.c2 = c2

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        rows, cols = self.shape
        n = source.domain_size
        if rows * cols != n:
            raise ValueError("2-D shape does not match the vector's domain size")

        first_epsilon, second_epsilon = split_budget(epsilon, self.first_level_share)

        # Level 1: coarse uniform grid.
        total_epsilon = 0.1 * first_epsilon
        noisy_total = max(source.vector_laplace(Total(n), total_epsilon)[0], 1.0)
        level1_grid = uniform_grid_select(rows, cols, noisy_total, first_epsilon, c=self.c)
        level1_rects = level1_grid.rects
        level1 = with_representation(level1_grid, self.representation)
        level1_answers = source.vector_laplace(level1, first_epsilon - total_epsilon)

        # Level 2: adapt the granularity inside each coarse block to its count.
        second_parts: list[LinearQueryMatrix] = []
        for region, noisy_count in zip(level1_rects, level1_answers):
            finer = adaptive_grid_select(
                region, rows, cols, noisy_count, second_epsilon, c2=self.c2
            )
            if finer is not None:
                second_parts.append(finer)

        matrices: list[LinearQueryMatrix] = [level1]
        answers = [level1_answers]
        if second_parts:
            level2 = with_representation(VStack(second_parts), self.representation)
            answers.append(source.vector_laplace(level2, second_epsilon))
            matrices.append(level2)

        all_measurements = matrices[0] if len(matrices) == 1 else VStack(matrices)
        # The level-2 grid adapts to noisy level-1 counts, so the stacked
        # strategy is unique per request — keep its Gram out of the shared cache.
        estimate = infer_least_squares(all_measurements, np.concatenate(answers))
        return self._wrap(
            source,
            before,
            estimate.x_hat,
            num_measurements=all_measurements.shape[0],
            second_level_blocks=sum(m.shape[0] for m in second_parts),
        )
