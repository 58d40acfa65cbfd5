"""Unit tests for partition-selection operators (AHP, DAWA, workload-based, structural)."""

import numpy as np
import pytest

from repro.matrix import Identity, Kronecker, Prefix, RangeQueries, Total, VStack, marginal
from repro.operators.partition import (
    ahp_partition,
    cluster_sorted_counts,
    dawa_partition,
    grid_partition,
    l1_partition,
    marginal_partition,
    stripe_partition,
    workload_based_partition,
)
from repro.private import protect
from tests.conftest import make_vector_relation


def _vector_source(x, epsilon=10.0, seed=0):
    return protect(make_vector_relation(np.asarray(x, dtype=float)), epsilon, seed=seed).vectorize()


class TestAhp:
    def test_clusters_similar_counts(self):
        noisy = np.array([0.1, 0.2, 0.0, 100.0, 101.0, 99.5, 0.05, 0.1])
        assignment = cluster_sorted_counts(noisy)
        small_groups = set(assignment[[0, 1, 2, 6, 7]])
        large_groups = set(assignment[[3, 4, 5]])
        assert small_groups.isdisjoint(large_groups)

    def test_groups_uniform_regions(self):
        noisy = np.concatenate([np.full(10, 2.0), np.full(10, 500.0)])
        assignment = cluster_sorted_counts(noisy)
        assert set(assignment[:10]).isdisjoint(assignment[10:])

    def test_operator_consumes_budget(self):
        x = np.concatenate([np.zeros(16), np.full(16, 50.0)])
        source = _vector_source(x, epsilon=1.0, seed=2)
        partition = ahp_partition(source, epsilon=0.5)
        assert source.budget_consumed() == pytest.approx(0.5)
        assert partition.shape[1] == 32

    def test_reduces_domain(self):
        x = np.concatenate([np.zeros(32), np.full(32, 40.0)])
        source = _vector_source(x, epsilon=5.0, seed=3)
        partition = ahp_partition(source, epsilon=2.0)
        assert partition.num_groups < 64


class TestDawa:
    def test_l1_partition_finds_uniform_segments(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([np.full(32, 10.0), np.full(32, 200.0), np.full(64, 0.0)])
        noisy = x + rng.laplace(0, 1.0, len(x))
        assignment = l1_partition(noisy, noise_scale=1.0)
        num_groups = len(np.unique(assignment))
        assert num_groups < 20  # merged large uniform regions

    def test_groups_are_contiguous(self):
        rng = np.random.default_rng(1)
        noisy = rng.laplace(10, 2.0, 64)
        assignment = l1_partition(noisy, noise_scale=2.0)
        # Contiguity: group ids are non-decreasing along the domain.
        assert np.all(np.diff(assignment) >= 0)

    def test_noisier_measurements_give_coarser_partitions(self):
        rng = np.random.default_rng(2)
        x = rng.integers(0, 30, 128).astype(float)
        fine = l1_partition(x + rng.laplace(0, 0.1, 128), noise_scale=0.1)
        coarse = l1_partition(x + rng.laplace(0, 10.0, 128), noise_scale=10.0)
        assert np.unique(coarse).size <= np.unique(fine).size

    def test_operator_consumes_budget(self):
        x = np.concatenate([np.zeros(16), np.full(16, 50.0)])
        source = _vector_source(x, epsilon=1.0, seed=4)
        dawa_partition(source, epsilon=0.25)
        assert source.budget_consumed() == pytest.approx(0.25)


class TestWorkloadBased:
    def test_groups_identical_columns(self):
        # Census example 8.1: two non-overlapping conditions -> 2 groups... plus
        # untouched cells form a third group.
        w = RangeQueries(10, [(0, 4), (5, 7)])
        partition = workload_based_partition(w)
        assert partition.num_groups == 3

    def test_identity_workload_admits_no_reduction(self):
        partition = workload_based_partition(Identity(12))
        assert partition.num_groups == 12

    def test_total_workload_reduces_to_one_group(self):
        partition = workload_based_partition(Total(12))
        assert partition.num_groups == 1

    def test_reduction_is_lossless(self):
        rng = np.random.default_rng(5)
        w = VStack([RangeQueries(20, [(0, 9), (10, 19), (5, 14)]), Total(20)])
        x = rng.integers(0, 50, 20).astype(float)
        partition = workload_based_partition(w)
        reduced_w, reduced_x = partition.reduce_workload(w), partition.reduce_vector(x)
        assert np.allclose(w.matvec(x), reduced_w.matvec(reduced_x))
        assert partition.num_groups < 20

    def test_marginal_workload_on_kron_domain(self):
        domain = (4, 3, 2)
        w = marginal(domain, [0])
        partition = workload_based_partition(w)
        # The marginal over attribute 0 cannot distinguish cells that share the
        # attribute-0 value: exactly 4 groups remain.
        assert partition.num_groups == 4

    def test_works_on_implicit_prefix(self):
        partition = workload_based_partition(Prefix(32))
        assert partition.num_groups == 32  # prefix queries distinguish every cell


class TestStructural:
    def test_stripe_partition_groups(self):
        partition = stripe_partition((4, 3, 2), stripe_axis=0)
        assert partition.num_groups == 6
        for idx in partition.split_indices():
            assert len(idx) == 4

    def test_stripe_partition_groups_fix_other_attributes(self):
        domain = (3, 2, 2)
        partition = stripe_partition(domain, stripe_axis=0)
        coordinates = np.array(np.unravel_index(np.arange(np.prod(domain)), domain)).T
        for idx in partition.split_indices():
            rest = coordinates[idx][:, 1:]
            assert len(np.unique(rest, axis=0)) == 1

    def test_grid_partition(self):
        partition = grid_partition(4, 6, 2, 3)
        assert partition.num_groups == 4
        assert all(len(idx) == 6 for idx in partition.split_indices())

    def test_marginal_partition_matches_marginal_matrix(self):
        domain = (3, 4, 2)
        rng = np.random.default_rng(6)
        x = rng.integers(0, 10, int(np.prod(domain))).astype(float)
        partition = marginal_partition(domain, [0, 2])
        reduced = partition.reduce_vector(x)
        expected = marginal(domain, [0, 2]).matvec(x)
        assert np.allclose(reduced, expected)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            stripe_partition((4, 3), stripe_axis=7)
        with pytest.raises(ValueError):
            grid_partition(4, 4, 0, 2)
        with pytest.raises(ValueError):
            marginal_partition((4, 3), [9])
