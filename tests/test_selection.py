"""Unit tests for the query-selection operators."""

import numpy as np
import pytest

from repro.analysis import expected_workload_error
from repro.matrix import Identity, Kronecker, Prefix, RangeQueries, Total, VStack
from repro.operators.selection import (
    adaptive_grid_select,
    classify_workload_factor,
    greedy_h_select,
    h2_select,
    hb_select,
    hdmm_select,
    identity_select,
    quadtree_select,
    stripe_kron_select,
    total_select,
    uniform_grid_select,
    wavelet_select,
)
from repro.operators.selection.hierarchical import _dyadic_decomposition


class TestSimpleSelect:
    def test_identity_and_total(self):
        assert identity_select(6).shape == (6, 6)
        assert total_select(6).shape == (1, 6)

    def test_wavelet_requires_power_of_two(self):
        assert wavelet_select(8).shape == (8, 8)
        with pytest.raises(ValueError):
            wavelet_select(6)

    def test_h2_and_hb_support_reconstruction(self):
        for strategy in [h2_select(20), hb_select(20)]:
            assert np.linalg.matrix_rank(strategy.dense()) == 20

    def test_hb_uses_larger_branching_for_big_domains(self):
        small = h2_select(64)
        big = hb_select(4096)
        # HB uses a larger branching factor, hence fewer internal nodes per leaf.
        assert big.shape[0] / 4096 <= small.shape[0] / 64 + 1


class TestGreedyH:
    def test_dyadic_decomposition_covers_range(self):
        pieces = _dyadic_decomposition(3, 12, 16)
        covered = sorted(i for lo, hi in pieces for i in range(lo, hi + 1))
        assert covered == list(range(3, 13))

    def test_full_rank(self):
        g = greedy_h_select(32, [(0, 15), (16, 31)])
        assert np.linalg.matrix_rank(g.dense()) == 32

    @pytest.mark.parametrize("n", [5, 17, 32, 33, 100])
    def test_no_workload_is_h2(self, n):
        h2 = h2_select(n)
        for strategy in (greedy_h_select(n), greedy_h_select(n, [])):
            assert strategy.strategy_key() == h2.strategy_key()
            assert np.array_equal(strategy.dense(), h2.dense())

    def test_workload_changes_weights(self):
        uniform = greedy_h_select(32)
        adapted = greedy_h_select(32, [(0, 31)] * 10)
        assert not np.allclose(uniform.dense(), adapted.dense())

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(0)
        g = greedy_h_select(16, [(0, 3), (4, 15)])
        v = rng.normal(size=16)
        assert np.allclose(g.matvec(v), g.dense() @ v)


class TestGridSelect:
    def test_quadtree_covers_domain(self):
        q = quadtree_select(8, 8)
        assert np.allclose(q.dense().sum(axis=0).min(), q.dense().sum(axis=0).min())
        assert q.shape[1] == 64

    def test_uniform_grid_partitions_domain(self):
        g = uniform_grid_select(16, 16, total_estimate=10_000, epsilon=0.1)
        dense = g.dense()
        # Every cell is covered exactly once by the flat grid.
        assert np.allclose(dense.sum(axis=0), 1.0)

    def test_uniform_grid_granularity_grows_with_data(self):
        small = uniform_grid_select(32, 32, total_estimate=100, epsilon=0.1)
        large = uniform_grid_select(32, 32, total_estimate=1_000_000, epsilon=0.1)
        assert large.shape[0] > small.shape[0]

    def test_adaptive_grid_returns_none_for_sparse_regions(self):
        assert adaptive_grid_select((0, 7, 0, 7), 8, 8, noisy_region_count=0.0, epsilon=0.1) is None

    def test_adaptive_grid_refines_dense_regions(self):
        finer = adaptive_grid_select((0, 7, 0, 7), 8, 8, noisy_region_count=1e6, epsilon=1.0)
        assert finer is not None
        assert finer.shape[0] > 1


class TestHdmm:
    def test_identity_workload_gets_identity_like_strategy(self):
        strategy = hdmm_select(Identity(32))
        error_identity = expected_workload_error(Identity(32), Identity(32))
        error_strategy = expected_workload_error(Identity(32), strategy)
        assert error_strategy <= error_identity * 1.01

    def test_prefix_workload_prefers_hierarchy_over_identity(self):
        w = Prefix(64)
        strategy = hdmm_select(w)
        assert expected_workload_error(w, strategy) < expected_workload_error(w, Identity(64))

    def test_kron_workload_returns_kron_strategy(self):
        w = Kronecker([Prefix(16), Total(8)])
        strategy = hdmm_select(w)
        assert isinstance(strategy, Kronecker)
        assert strategy.shape[1] == 128

    def test_union_of_krons(self):
        w = VStack([Kronecker([Identity(4), Total(6)]), Kronecker([Total(4), Identity(6)])])
        strategy = hdmm_select(w)
        assert strategy.shape[1] == 24

    def test_classify_workload_factor(self):
        assert classify_workload_factor(Total(4)) == "total"
        assert classify_workload_factor(Identity(4)) == "identity"
        assert classify_workload_factor(Prefix(4)) == "prefix"
        assert classify_workload_factor(RangeQueries(4, [(0, 1)])) == "range"


class TestStripeKron:
    def test_shape(self):
        s = stripe_kron_select((8, 3, 2), stripe_axis=0)
        assert s.shape[1] == 48

    def test_identity_on_other_axes(self):
        s = stripe_kron_select((4, 3), stripe_axis=0)
        # Measuring a vector that is nonzero in a single "other" slice should
        # produce answers supported only in that slice's block of rows.
        x = np.zeros(12)
        x[1] = 5.0  # stripe position 0, other attribute value 1
        answers = s.matvec(x)
        assert np.count_nonzero(answers) > 0

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            stripe_kron_select((4, 3), stripe_axis=5)
