"""Unit tests for partition (reduction/expansion) matrices."""

import numpy as np
import pytest

from repro.matrix import Prefix, RangeQueries, ReductionMatrix


class TestReductionMatrix:
    def test_matvec_sums_groups(self):
        p = ReductionMatrix(np.array([0, 0, 1, 1, 2]))
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.allclose(p.matvec(x), [3.0, 7.0, 5.0])

    def test_dense_structure(self):
        p = ReductionMatrix(np.array([0, 1, 0]))
        expected = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(p.dense(), expected)

    def test_group_relabelling_preserves_first_appearance(self):
        p = ReductionMatrix(np.array([5, 5, 2, 7, 2]))
        assert np.array_equal(p.groups, [0, 0, 1, 2, 1])

    def test_sensitivity_is_one(self):
        p = ReductionMatrix(np.array([0, 1, 1, 2, 0]))
        assert p.sensitivity() == 1.0

    def test_pseudo_inverse_matches_numpy(self):
        p = ReductionMatrix(np.array([0, 0, 1, 2, 1, 2, 0]))
        assert np.allclose(p.pseudo_inverse().dense(), np.linalg.pinv(p.dense()))

    def test_expand_vector_spreads_uniformly(self):
        p = ReductionMatrix(np.array([0, 0, 1]))
        expanded = p.expand_vector(np.array([4.0, 9.0]))
        assert np.allclose(expanded, [2.0, 2.0, 9.0])

    def test_reduce_then_expand_preserves_group_totals(self):
        rng = np.random.default_rng(0)
        groups = rng.integers(0, 5, size=30)
        p = ReductionMatrix(groups)
        x = rng.random(30)
        expanded = p.expand_vector(p.reduce_vector(x))
        assert np.allclose(p.reduce_vector(expanded), p.reduce_vector(x))

    def test_split_indices_partition_domain(self):
        p = ReductionMatrix(np.array([1, 0, 1, 2, 0]))
        indices = p.split_indices()
        combined = np.sort(np.concatenate(indices))
        assert np.array_equal(combined, np.arange(5))
        for g, idx in enumerate(indices):
            assert np.all(p.groups[idx] == g)

    def test_empty_assignment_rejected(self):
        with pytest.raises(ValueError):
            ReductionMatrix(np.array([]))


class TestWorkloadReductionAlgebra:
    def test_reduce_workload_lossless_when_columns_identical(self):
        # Workload that does not distinguish cells {0,1} or cells {2,3}.
        workload = RangeQueries(4, [(0, 1), (2, 3), (0, 3)])
        partition = ReductionMatrix(np.array([0, 0, 1, 1]))
        reduced_workload = partition.reduce_workload(workload)
        rng = np.random.default_rng(1)
        x = rng.random(4)
        x_reduced = partition.reduce_vector(x)
        assert np.allclose(workload.matvec(x), reduced_workload.matvec(x_reduced))

    def test_expansion_rmatvec_matches_dense(self):
        partition = ReductionMatrix(np.array([0, 1, 1, 2, 0]))
        expansion = partition.pseudo_inverse()
        rng = np.random.default_rng(2)
        u = rng.normal(size=5)
        assert np.allclose(expansion.rmatvec(u), expansion.dense().T @ u)

    def test_expansion_square_matches_dense(self):
        partition = ReductionMatrix(np.array([0, 1, 1, 2, 0]))
        expansion = partition.pseudo_inverse()
        sq = expansion.square()
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(sq.matvec(v), (expansion.dense() ** 2) @ v)
