"""The CDF-estimation plan of Algorithm 1 (the paper's running example).

Given a protected census-like table, estimate the empirical CDF of ``salary``
for a filtered sub-population:

1. Where / Select table transformations restrict to the sub-population,
2. T-Vectorize builds the salary histogram vector,
3. AHPpartition (spending half the budget) groups similar counts,
4. V-ReduceByPartition applies the partition,
5. Identity selection + Vector Laplace (the other half of the budget),
6. NNLS inference maps the reduced noisy counts back to the original domain,
7. the Prefix workload turns the estimated histogram into a CDF.
"""

from __future__ import annotations

import numpy as np

from ..matrix import Identity, Prefix
from ..operators.inference import nnls
from ..operators.partition import ahp_partition
from ..private.protected import ProtectedDataSource
from .base import split_budget


def cdf_estimator(
    table_source: ProtectedDataSource,
    value_attribute: str,
    epsilon: float,
    where: dict | None = None,
    partition_share: float = 0.5,
) -> np.ndarray:
    """Run Algorithm 1 and return the estimated empirical CDF.

    Parameters
    ----------
    table_source:
        Protected handle to the input table (the ``Protected(source_uri)`` of
        Algorithm 1 line 1).
    value_attribute:
        The attribute whose CDF is estimated (``salary`` in the paper).
    epsilon:
        Total budget of the plan.
    where:
        Optional filter (e.g. ``{"gender": 0, "age": (3, 3)}``) applied before
        vectorising.
    partition_share:
        Fraction of the budget given to AHPpartition (0.5 in Algorithm 1).
    """
    partition_epsilon, measure_epsilon = split_budget(epsilon, partition_share)
    filtered = table_source.where(where) if where else table_source
    projected = filtered.select([value_attribute])
    vector = projected.vectorize()
    n = vector.domain_size

    partition = ahp_partition(vector, partition_epsilon)
    reduced = vector.reduce_by_partition(partition)
    noisy = reduced.vector_laplace(Identity(reduced.domain_size), measure_epsilon)

    # NNLS(P, y): find a non-negative x with P x ≈ y on the original domain.
    estimate = nnls(partition, noisy)
    prefix = Prefix(n)
    return prefix.matvec(estimate.x_hat)
