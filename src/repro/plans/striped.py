"""Striped plans for high-dimensional census data (Sec. 9.2, plans #14-#16).

A *stripe* fixes every attribute except one; splitting the full-domain vector
by stripes yields one small 1-D vector per combination of the other
attributes.  Lower-dimensional techniques (HB, DAWA) then run on each stripe,
and parallel composition means the per-stripe budget is the full budget.

* HB-Striped (#15) runs HB on every stripe (the measurements are identical
  across stripes because HB is data-independent);
* DAWA-Striped (#14) runs DAWA on every stripe (the partitions differ because
  DAWA adapts to each stripe's data);
* HB-Striped_kron (#16) expresses the same measurements as HB-Striped with a
  single Kronecker-product measurement matrix — no explicit splitting.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..matrix import Identity, ReductionMatrix
from ..operators.partition import l1_partition_batch, stripe_partition
from ..operators.selection import greedy_h_select, hb_select
from ..operators.selection.stripe import stripe_kron_select
from ..private.protected import ProtectedDataSource
from .base import (
    Plan,
    PlanResult,
    infer_least_squares,
    public_strategy,
    split_budget,
    with_representation,
)


class HbStripedPlan(Plan):
    """Plan #15 — partition into stripes, run HB + least squares in each."""

    name = "HB-Striped"
    signature = "PS TP[ SHB LM] LS"
    plan_id = 15

    def __init__(self, domain: Sequence[int], stripe_axis: int, representation: str = "implicit"):
        self.domain = tuple(int(d) for d in domain)
        self.stripe_axis = int(stripe_axis)
        self.representation = representation

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        if int(np.prod(self.domain)) != source.domain_size:
            raise ValueError("domain does not match the vector source")
        partition = stripe_partition(self.domain, self.stripe_axis)
        stripes = source.split_by_partition(partition)
        stripe_length = self.domain[self.stripe_axis]
        gram_cache = kwargs.get("gram_cache")
        measurements = public_strategy(
            gram_cache,
            (self.name, source.domain_size, self.domain, self.stripe_axis),
            lambda: hb_select(stripe_length),
            self.representation,
        )

        estimates = np.zeros(source.domain_size)
        split_indices = partition.split_indices()
        for stripe, cells in zip(stripes, split_indices):
            answers = stripe.vector_laplace(measurements, epsilon)
            # The HB strategy is identical in every stripe, so with a cache
            # one factorisation serves all stripes (and all later requests).
            estimate = infer_least_squares(measurements, answers, gram_cache=gram_cache)
            estimates[cells] = estimate.x_hat
        return self._wrap(
            source, before, estimates, num_stripes=len(stripes), stripe_length=stripe_length
        )


class DawaStripedPlan(Plan):
    """Plan #14 — partition into stripes, run the full DAWA pipeline in each."""

    name = "DAWA-Striped"
    signature = "PS TP[ PD TR SG LM] LS"
    plan_id = 14

    def __init__(
        self,
        domain: Sequence[int],
        stripe_axis: int,
        partition_share: float = 0.25,
        representation: str = "implicit",
    ):
        self.domain = tuple(int(d) for d in domain)
        self.stripe_axis = int(stripe_axis)
        self.partition_share = partition_share
        self.representation = representation

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        if int(np.prod(self.domain)) != source.domain_size:
            raise ValueError("domain does not match the vector source")
        partition_epsilon, measure_epsilon = split_budget(epsilon, self.partition_share)
        partition = stripe_partition(self.domain, self.stripe_axis)
        stripes = source.split_by_partition(partition)
        split_indices = partition.split_indices()

        # Stage one of every stripe's DAWA first: the noisy histograms are
        # collected stripe by stripe (budget accounting is unchanged — the
        # same Vector Laplace calls, under parallel composition), then a
        # single l1_partition_batch runs the L1 DP for all stripes at once,
        # vectorizing the per-end recurrence across the stripe axis.
        stripe_length = self.domain[self.stripe_axis]
        stripe_identity = Identity(stripe_length)
        noisy_histograms = np.stack(
            [stripe.vector_laplace(stripe_identity, partition_epsilon) for stripe in stripes]
        )
        assignments = l1_partition_batch(noisy_histograms, 1.0 / partition_epsilon)

        estimates = np.zeros(source.domain_size)
        total_groups = 0
        for stripe, cells, assignment in zip(stripes, split_indices, assignments):
            stripe_partition_matrix = ReductionMatrix(assignment)
            reduced = stripe.reduce_by_partition(stripe_partition_matrix)
            measurements = with_representation(
                greedy_h_select(reduced.domain_size), self.representation
            )
            answers = reduced.vector_laplace(measurements, measure_epsilon)
            # Each stripe's DAWA partition is fresh DP noise, so the reduced
            # strategies are one-off: no shared Gram caching.
            estimate = infer_least_squares(measurements, answers)
            estimates[cells] = stripe_partition_matrix.expand_vector(estimate.x_hat)
            total_groups += stripe_partition_matrix.num_groups
        return self._wrap(
            source, before, estimates, num_stripes=len(stripes), total_groups=total_groups
        )


class HbStripedKronPlan(Plan):
    """Plan #16 — the HB-Striped measurements as one Kronecker product matrix."""

    name = "HB-Striped_kron"
    signature = "SS LM LS"
    plan_id = 16

    def __init__(self, domain: Sequence[int], stripe_axis: int, representation: str = "implicit"):
        self.domain = tuple(int(d) for d in domain)
        self.stripe_axis = int(stripe_axis)
        self.representation = representation

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        if int(np.prod(self.domain)) != source.domain_size:
            raise ValueError("domain does not match the vector source")
        gram_cache = kwargs.get("gram_cache")
        measurements = public_strategy(
            gram_cache,
            (self.name, source.domain_size, self.domain, self.stripe_axis),
            lambda: stripe_kron_select(self.domain, self.stripe_axis),
            self.representation,
        )
        answers = source.vector_laplace(measurements, epsilon)
        estimate = infer_least_squares(measurements, answers, gram_cache=gram_cache)
        return self._wrap(
            source, before, estimate.x_hat, num_measurements=measurements.shape[0]
        )
