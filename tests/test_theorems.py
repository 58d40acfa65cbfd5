"""Tests of the paper's analytic claims (Theorem 5.3, Prop. 8.3, Theorem 8.4).

These are checked numerically on small domains where the expected-error
formulas can be evaluated densely.
"""

import numpy as np
import pytest

from repro.analysis import expected_workload_error
from repro.matrix import Identity, Prefix, RangeQueries, Total, VStack, marginal
from repro.operators.partition import workload_based_partition


class TestTheorem53MoreMeasurementsNeverHurt:
    """Expected error never increases when a measurement is added (Theorem 5.3)."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_augmentation(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        base = Identity(n)
        extra_row = rng.integers(0, 2, n).astype(float)
        augmented = VStack([base, RangeQueries(n, [(0, n - 1)])]) if extra_row.sum() == 0 else None
        if augmented is None:
            from repro.matrix import DenseMatrix

            augmented = VStack([base, DenseMatrix(extra_row.reshape(1, -1))])
        query = rng.integers(0, 2, n).astype(float)
        # Theorem 5.3 assumes unit-variance measurements: compare with
        # sensitivity-free variance, i.e. epsilon chosen so both have scale 1.
        error_before = float(query @ np.linalg.pinv(base.dense().T @ base.dense()) @ query)
        aug_dense = augmented.dense()
        error_after = float(query @ np.linalg.pinv(aug_dense.T @ aug_dense) @ query)
        assert error_after <= error_before + 1e-9

    def test_prefix_plus_identity_beats_identity_alone(self):
        n = 16
        identity_only = Identity(n).dense()
        both = np.vstack([identity_only, Prefix(n).dense()])
        query = np.ones(n)
        error_identity = float(query @ np.linalg.pinv(identity_only.T @ identity_only) @ query)
        error_both = float(query @ np.linalg.pinv(both.T @ both) @ query)
        assert error_both < error_identity


class TestProposition83LosslessReduction:
    """W x = W' x' for the workload-based partition (Prop. 8.3)."""

    @pytest.mark.parametrize(
        "workload_factory",
        [
            lambda: RangeQueries(24, [(0, 11), (12, 23), (6, 17)]),
            lambda: Total(24),
            lambda: VStack([Total(24), RangeQueries(24, [(0, 5)])]),
            lambda: marginal((4, 3, 2), [0]),
            lambda: marginal((4, 3, 2), [0, 2]),
        ],
    )
    def test_lossless(self, workload_factory):
        workload = workload_factory()
        n = workload.shape[1]
        rng = np.random.default_rng(0)
        x = rng.integers(0, 50, n).astype(float)
        partition = workload_based_partition(workload)
        x_reduced = partition.reduce_vector(x)
        w_reduced = partition.reduce_workload(workload)
        assert np.allclose(workload.matvec(x), w_reduced.matvec(x_reduced), atol=1e-8)

    def test_pseudo_inverse_formula(self):
        workload = RangeQueries(12, [(0, 5), (6, 11)])
        partition = workload_based_partition(workload)
        P = partition.dense()
        D = np.diag(partition.group_sizes)
        assert np.allclose(partition.pseudo_inverse().dense(), P.T @ np.linalg.inv(D))


class TestTheorem84ReductionNeverHurts:
    """Expected per-query error never increases after workload-based reduction."""

    @pytest.mark.parametrize("strategy_name", ["identity", "hierarchical"])
    def test_reduced_error_not_worse(self, strategy_name):
        from repro.matrix import HierarchicalQueries

        n = 16
        workload = RangeQueries(n, [(0, 7), (8, 15), (0, 15), (4, 11)])
        partition = workload_based_partition(workload)
        p = partition.num_groups
        strategy = Identity(n) if strategy_name == "identity" else HierarchicalQueries(n)
        reduced_strategy_dense = strategy.dense() @ partition.pseudo_inverse().dense()

        from repro.matrix import DenseMatrix

        reduced_strategy = DenseMatrix(reduced_strategy_dense)
        reduced_workload = DenseMatrix(workload.dense() @ partition.pseudo_inverse().dense())

        for i in range(workload.shape[0]):
            query = DenseMatrix(workload.dense()[i : i + 1])
            reduced_query = DenseMatrix(reduced_workload.dense()[i : i + 1])
            original = expected_workload_error(query, strategy)
            reduced = expected_workload_error(reduced_query, reduced_strategy)
            assert reduced <= original + 1e-6
