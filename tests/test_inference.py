"""Unit tests for the inference operators (LS, NNLS, MW, tree-based, threshold)."""

import numpy as np
import pytest

from repro.matrix import HierarchicalQueries, Identity, Prefix, RangeQueries, Total, VStack
from repro.operators.inference import (
    hierarchical_measurements,
    least_squares,
    least_squares_from_parts,
    multiplicative_weights,
    nnls,
    nnls_with_total,
    threshold,
    tree_based_least_squares,
)


@pytest.fixture
def rng():
    return np.random.default_rng(17)


class TestLeastSquares:
    def test_exact_recovery_noiseless(self, rng):
        x = rng.integers(0, 30, size=40).astype(float)
        m = HierarchicalQueries(40)
        result = least_squares(m, m.matvec(x))
        assert np.allclose(result.x_hat, x, atol=1e-4)

    def test_direct_and_iterative_agree(self, rng):
        x = rng.integers(0, 20, size=16).astype(float)
        m = HierarchicalQueries(16)
        y = m.matvec(x) + rng.normal(0, 1.0, m.shape[0])
        iterative = least_squares(m, y, method="lsmr")
        direct = least_squares(m, y, method="direct")
        assert np.allclose(iterative.x_hat, direct.x_hat, atol=1e-3)

    def test_weights_downweight_noisy_measurements(self, rng):
        x = rng.integers(0, 30, size=8).astype(float)
        clean = Identity(8)
        noisy = Identity(8)
        stacked = VStack([clean, noisy])
        answers = np.concatenate([x, x + rng.normal(0, 50, 8)])
        weighted = least_squares(stacked, answers, weights=np.concatenate([np.ones(8) * 100, np.ones(8)]))
        unweighted = least_squares(stacked, answers)
        assert np.abs(weighted.x_hat - x).mean() < np.abs(unweighted.x_hat - x).mean()

    def test_wrong_answer_length_rejected(self):
        with pytest.raises(ValueError):
            least_squares(Identity(4), np.zeros(3))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            least_squares(Identity(4), np.zeros(4), method="magic")

    def test_from_parts_combines_measurements(self, rng):
        x = rng.integers(0, 30, size=12).astype(float)
        m1, m2 = Identity(12), Prefix(12)
        parts = [(m1, m1.matvec(x), 1.0), (m2, m2.matvec(x), 1.0)]
        result = least_squares_from_parts(parts)
        assert np.allclose(result.x_hat, x, atol=1e-4)

    def test_from_parts_requires_parts(self):
        with pytest.raises(ValueError):
            least_squares_from_parts([])

    def test_underdetermined_total_only(self):
        # Total-only measurement: LSMR returns the minimum-norm solution,
        # which spreads the total uniformly.
        m = Total(10)
        result = least_squares(m, np.array([100.0]))
        assert np.allclose(result.x_hat, 10.0, atol=1e-6)


class TestNnls:
    def test_output_nonnegative(self, rng):
        x = rng.integers(0, 5, size=30).astype(float)
        m = Identity(30)
        y = m.matvec(x) + rng.laplace(0, 3, 30)
        result = nnls(m, y)
        assert np.all(result.x_hat >= 0)

    def test_exact_recovery_noiseless(self, rng):
        x = rng.integers(0, 30, size=24).astype(float)
        m = HierarchicalQueries(24)
        result = nnls(m, m.matvec(x))
        assert np.allclose(result.x_hat, x, atol=1e-2)

    def test_better_than_ls_on_sparse_data(self, rng):
        x = np.zeros(64)
        x[5] = 100.0
        m = Identity(64)
        y = m.matvec(x) + rng.laplace(0, 10, 64)
        ls_error = np.abs(least_squares(m, y).x_hat - x).sum()
        nnls_error = np.abs(nnls(m, y).x_hat - x).sum()
        assert nnls_error < ls_error

    def test_with_total_constrains_mass(self, rng):
        x = rng.integers(0, 10, size=16).astype(float)
        m = Identity(16)
        y = m.matvec(x) + rng.laplace(0, 5, 16)
        result = nnls_with_total(m, y, total=x.sum())
        assert np.isclose(result.x_hat.sum(), x.sum(), rtol=0.05)

    def test_wrong_answer_length_rejected(self):
        with pytest.raises(ValueError):
            nnls(Identity(4), np.zeros(5))


class TestMultiplicativeWeights:
    def test_preserves_total(self, rng):
        x = rng.integers(0, 20, size=32).astype(float)
        m = Prefix(32)
        result = multiplicative_weights(m, m.matvec(x), total=x.sum(), iterations=20)
        assert np.isclose(result.x_hat.sum(), x.sum(), rtol=1e-6)
        assert np.all(result.x_hat >= 0)

    def test_improves_over_uniform(self, rng):
        x = np.zeros(32)
        x[3] = 60.0
        x[20] = 40.0
        m = Identity(32)
        result = multiplicative_weights(m, m.matvec(x), total=x.sum(), iterations=60)
        uniform = np.full(32, x.sum() / 32)
        assert np.abs(result.x_hat - x).sum() < np.abs(uniform - x).sum()

    def test_total_estimated_when_missing(self, rng):
        x = rng.integers(0, 10, size=16).astype(float)
        m = Total(16)
        result = multiplicative_weights(m, m.matvec(x))
        assert np.isclose(result.x_hat.sum(), x.sum(), rtol=1e-6)

    def test_wrong_answer_length_rejected(self):
        with pytest.raises(ValueError):
            multiplicative_weights(Identity(4), np.zeros(3))


class TestTreeBased:
    @pytest.mark.parametrize("n, branching", [(8, 2), (256, 2), (27, 3), (1000, 10)])
    def test_matches_least_squares(self, n, branching):
        """On a complete tree the two passes give the least-squares x̂: dense
        ``lstsq`` on the same Laplace(5)-noised measurements, to rounding."""
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = rng.integers(0, 30, size=n).astype(float)
            intervals = hierarchical_measurements(x, branching)
            matrix = RangeQueries(n, intervals).dense()
            answers = matrix @ x + rng.laplace(0, 5.0, len(intervals))
            tree = tree_based_least_squares(dict(zip(intervals, answers)), n, branching)
            exact = np.linalg.lstsq(matrix, answers, rcond=None)[0]
            assert np.max(np.abs(tree.x_hat - exact)) <= 1e-9 * np.max(np.abs(exact))

    @pytest.mark.parametrize("n, branching", [(1000, 2), (12, 3), (4, 1)])
    def test_incomplete_tree_rejected(self, n, branching):
        x = np.zeros(n)
        noisy = dict.fromkeys(hierarchical_measurements(x, max(branching, 2)), 0.0)
        with pytest.raises(ValueError, match="complete tree"):
            tree_based_least_squares(noisy, n, branching)

    @pytest.mark.parametrize("branching", [0, 1])
    def test_hierarchical_measurements_rejects_branching_below_two(self, branching):
        with pytest.raises(ValueError, match="branching factor"):
            hierarchical_measurements(np.zeros(4), branching)

    def test_noiseless_recovery(self, rng):
        n = 8
        x = rng.integers(0, 10, size=n).astype(float)
        intervals = hierarchical_measurements(x, branching=2)
        exact = {(lo, hi): x[lo : hi + 1].sum() for lo, hi in intervals}
        result = tree_based_least_squares(exact, n)
        assert np.allclose(result.x_hat, x, atol=1e-9)

    def test_missing_interval_rejected(self, rng):
        with pytest.raises(KeyError):
            tree_based_least_squares({(0, 3): 4.0}, 4)


class TestThreshold:
    def test_zeroes_small_values(self):
        x = np.array([0.5, -0.2, 10.0, 3.0])
        result = threshold(x, cutoff=1.0)
        assert np.allclose(result.x_hat, [0.0, 0.0, 10.0, 3.0])

    def test_noise_scale_default_cutoff(self):
        x = np.array([1.0, 5.0])
        result = threshold(x, noise_scale=1.0)  # cutoff = 2
        assert np.allclose(result.x_hat, [0.0, 5.0])

    def test_requires_cutoff_or_scale(self):
        with pytest.raises(ValueError):
            threshold(np.ones(3))

    def test_clips_negatives(self):
        result = threshold(np.array([-5.0, 4.0]), cutoff=1.0)
        assert np.all(result.x_hat >= 0)
