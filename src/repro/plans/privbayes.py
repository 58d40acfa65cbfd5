"""PrivBayes baseline and the PrivBayesLS plan (Sec. 9.2, plan #17).

PrivBayes privately learns a Bayesian network, measures the marginals that are
its sufficient statistics, and combines them back into a full-domain estimate.
The baseline combines the noisy marginals through the network's factorisation
(its synthetic-data step, here kept in distribution form); PrivBayesLS keeps
the same selection and measurement but replaces that custom combination step
with EKTELO's generic least-squares inference operator — the one-operator swap
the paper credits with the improvement seen in Table 5.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..matrix import Total

from ..operators.selection.privbayes import (
    privbayes_select,
    privbayes_synthetic_distribution,
)
from ..private.protected import ProtectedDataSource
from .base import Plan, PlanResult, infer_least_squares


class _PrivBayesBase(Plan):
    """Shared selection + measurement steps of PrivBayes and PrivBayesLS."""

    def __init__(
        self,
        domain: Sequence[int],
        select_share: float = 0.3,
        max_parents: int = 2,
        seed: int = 0,
    ):
        self.domain = tuple(int(d) for d in domain)
        self.select_share = select_share
        self.max_parents = max_parents
        self.seed = seed

    def _select_and_measure(self, source: ProtectedDataSource, epsilon: float):
        n = source.domain_size
        if int(np.prod(self.domain)) != n:
            raise ValueError("domain does not match the vector source")
        if not 0.0 < self.select_share < 0.95:
            # 5% of the budget goes to the noisy total.
            raise ValueError(
                f"select_share must lie in (0, 0.95), got {self.select_share!r}"
            )
        total_epsilon = 0.05 * epsilon
        select_epsilon = self.select_share * epsilon
        measure_epsilon = epsilon - select_epsilon - total_epsilon

        noisy_total = max(source.vector_laplace(Total(n), total_epsilon)[0], 1.0)
        measurements, network = privbayes_select(
            source,
            self.domain,
            select_epsilon,
            max_parents=self.max_parents,
            total_records=noisy_total,
            seed=self.seed,
        )
        answers = source.vector_laplace(measurements, measure_epsilon)
        return measurements, answers, network, noisy_total


class PrivBayesPlan(_PrivBayesBase):
    """The PrivBayes baseline: noisy marginals combined through the Bayes net."""

    name = "PrivBayes"
    signature = "SPB LM (factorised combine)"
    plan_id = None

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        measurements, answers, network, noisy_total = self._select_and_measure(source, epsilon)

        # Slice the stacked answers back into per-marginal tables.
        marginal_estimates: dict[tuple[int, ...], np.ndarray] = {}
        offset = 0
        for attribute, parents in network:
            keep = (attribute, *parents)
            size = int(np.prod([self.domain[a] for a in keep]))
            marginal_estimates[keep] = answers[offset : offset + size]
            offset += size
        distribution = privbayes_synthetic_distribution(network, marginal_estimates, self.domain)
        x_hat = distribution * noisy_total
        return self._wrap(source, before, x_hat, network=network)


class PrivBayesLsPlan(_PrivBayesBase):
    """Plan #17 — PrivBayes selection and measurement with least-squares inference."""

    name = "PrivBayesLS"
    signature = "SPB LM LS"
    plan_id = 17

    def run(self, source: ProtectedDataSource, epsilon: float, **kwargs) -> PlanResult:
        before = source.budget_consumed()
        measurements, answers, network, _ = self._select_and_measure(source, epsilon)
        # The measurement stack follows the DP-selected network structure,
        # which varies per request — keep its Gram out of the shared cache.
        estimate = infer_least_squares(measurements, answers)
        x_hat = np.clip(estimate.x_hat, 0.0, None)
        return self._wrap(source, before, x_hat, network=network)
