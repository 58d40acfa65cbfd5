"""Property tests for the vectorized data-dependent engine.

Three families of guarantees:

* the vectorized DAWA L1 partition (:func:`l1_partition` /
  :func:`l1_partition_batch`) and AHP clustering
  (:func:`cluster_sorted_counts`) return assignments *identical* to the
  retained scalar references, on randomized histograms including the n=0,
  n=1, all-zero and non-power-of-two edge cases;
* the support-sparse multiplicative-weights update is bit-identical to the
  dense update (``exp(0) = 1`` exactly), on the cached and the blocked
  uncached row paths and with a caller-supplied ``row_cache`` (the form the
  MWEM loop uses);
* the Gram-engine expected-error analysis matches the per-query
  pseudo-inverse formula it replaced, and :func:`multiplicative_weights`
  implements its documented total estimation (mean of total-like rows).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import expected_query_error, expected_workload_error
from repro.matrix import HierarchicalQueries, Identity, Prefix, RangeQueries, Total, VStack
from repro.matrix.dense import DenseMatrix
from repro.operators.inference import estimate_total, multiplicative_weights
from repro.operators.inference import mult_weights
from repro.operators.partition import cluster_sorted_counts, l1_partition, l1_partition_batch
from repro.operators.partition.ahp import _reference_cluster_sorted_counts
from repro.operators.partition.dawa import (
    _dyadic_interval_costs,
    _dyadic_lengths,
    _reference_l1_partition,
)


def _reference_batch(blocks, noise_scale):
    return np.stack([_reference_l1_partition(row, noise_scale) for row in blocks])


# Integer-valued histograms: every interval cost is an exact dyadic rational,
# whatever order its deviations are summed in.
_int_histograms = st.lists(
    st.integers(min_value=0, max_value=10_000), min_size=0, max_size=130
).map(lambda values: np.asarray(values, dtype=np.float64))

# One-decimal histograms: interval costs round, so they equal the reference's
# only when each is summed in the order of the reference's ``sum``.
_decimal_histograms = st.lists(
    st.integers(min_value=-200, max_value=2_000), min_size=0, max_size=130
).map(lambda values: np.asarray(values, dtype=np.float64) / 10.0)

_noise_scales = st.sampled_from([0.25, 1.0, 3.5, 17.0])


class TestL1PartitionMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(noisy=_int_histograms, noise_scale=_noise_scales)
    def test_integer_histograms(self, noisy, noise_scale):
        assert np.array_equal(
            l1_partition(noisy, noise_scale), _reference_l1_partition(noisy, noise_scale)
        )

    @settings(max_examples=150, deadline=None)
    @given(noisy=_decimal_histograms, noise_scale=_noise_scales)
    def test_one_decimal_histograms(self, noisy, noise_scale):
        assert np.array_equal(
            l1_partition(noisy, noise_scale), _reference_l1_partition(noisy, noise_scale)
        )

    @pytest.mark.parametrize("seed", [79, 134, 171])
    def test_decimal_laplace_histograms_regression(self, seed):
        # Summing a window of 8 or more cells offset by offset, instead of in
        # the reference's pairwise order, moves some costs by an ulp and
        # changes these partitions (42 groups against 40 at seed 79).
        noisy = np.round(np.random.default_rng(seed).laplace(5.0, 3.0, 100), 1)
        assert np.array_equal(l1_partition(noisy, 2.0), _reference_l1_partition(noisy, 2.0))

    def test_interval_costs_equal_the_reference(self):
        # Every dyadic length, both summation paths (left to right below 8
        # cells, pairwise from 8 on), on a stack of histograms: each cost is
        # the reference's ``interval_cost`` bit for bit.
        blocks = np.round(np.random.default_rng(79).laplace(5.0, 3.0, (3, 100)), 1)
        costs = _dyadic_interval_costs(blocks, 2.0)
        for row, noisy in enumerate(blocks):
            prefix = np.concatenate([[0.0], np.cumsum(noisy)])
            for length, cost in zip(_dyadic_lengths(100), costs):
                for lo in range(100 - length + 1):
                    mean = (prefix[lo + length] - prefix[lo]) / length
                    deviation = float(np.abs(noisy[lo : lo + length] - mean).sum())
                    assert cost[row, lo] == max(deviation - 2.0 * length, 0.0) + 2.0

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 17, 31, 64, 100, 127, 255, 300])
    @pytest.mark.parametrize("noise_scale", [0.5, 2.0])
    def test_noised_histograms_all_domain_shapes(self, n, noise_scale):
        rng = np.random.default_rng(1000 + n)
        plateau = np.repeat(rng.integers(0, 60, n // 8 + 1), 8)[:n].astype(np.float64)
        noisy = plateau + rng.laplace(0.0, noise_scale, n)
        assert np.array_equal(
            l1_partition(noisy, noise_scale), _reference_l1_partition(noisy, noise_scale)
        )

    @pytest.mark.parametrize("n", [0, 1, 6, 33, 128])
    def test_all_zero_histogram(self, n):
        zeros = np.zeros(n)
        assert np.array_equal(l1_partition(zeros, 1.0), _reference_l1_partition(zeros, 1.0))

    def test_constant_histogram_merges_everything(self):
        constant = np.full(64, 9.0)
        assignment = l1_partition(constant, 1.0)
        assert np.array_equal(assignment, _reference_l1_partition(constant, 1.0))
        assert len(np.unique(assignment)) == 1

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError, match="1-D"):
            l1_partition(np.zeros((2, 4)), 1.0)


class TestL1PartitionBatch:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 40), (3, 5), (7, 33), (32, 16), (16, 64)])
    def test_matches_per_row_reference(self, shape):
        rng = np.random.default_rng(hash(shape) % (2**32))
        blocks = rng.integers(0, 80, size=shape).astype(np.float64)
        blocks += rng.laplace(0.0, 1.5, size=shape)
        assert np.array_equal(
            l1_partition_batch(blocks, 1.5), _reference_batch(blocks, 1.5)
        )

    def test_empty_batch_shapes(self):
        assert l1_partition_batch(np.zeros((0, 5)), 1.0).shape == (0, 5)
        assert l1_partition_batch(np.zeros((4, 0)), 1.0).shape == (4, 0)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError, match="stack"):
            l1_partition_batch(np.zeros(8), 1.0)

    def test_groups_are_contiguous_per_row(self):
        rng = np.random.default_rng(7)
        blocks = rng.laplace(10.0, 4.0, size=(5, 48))
        for row in l1_partition_batch(blocks, 4.0):
            assert np.all(np.diff(row) >= 0)


class TestClusterSortedCountsMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        noisy=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
            min_size=0,
            max_size=120,
        ).map(np.asarray),
        gap_ratio=st.sampled_from([0.2, 0.5, 1.0, 2.5]),
    )
    def test_arbitrary_floats(self, noisy, gap_ratio):
        assert np.array_equal(
            cluster_sorted_counts(noisy, gap_ratio=gap_ratio),
            _reference_cluster_sorted_counts(noisy, gap_ratio=gap_ratio),
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 100, 513])
    def test_noised_histograms(self, n):
        rng = np.random.default_rng(2000 + n)
        noisy = np.maximum(rng.laplace(5.0, 25.0, n), 0.0)
        assert np.array_equal(
            cluster_sorted_counts(noisy), _reference_cluster_sorted_counts(noisy)
        )

    def test_all_zero_and_duplicates(self):
        for noisy in (np.zeros(40), np.repeat([3.0, 3.0, 900.0], 20)):
            assert np.array_equal(
                cluster_sorted_counts(noisy), _reference_cluster_sorted_counts(noisy)
            )

    def test_group_crossing_scan_window_boundary(self):
        # One group wider than the initial scan window forces the doubling path.
        from repro.operators.partition.ahp import _SCAN_WINDOW

        n = _SCAN_WINDOW * 4 + 17
        rng = np.random.default_rng(3)
        noisy = 1000.0 + rng.random(n) * 1e-6  # one huge tight group
        noisy[::97] += 5000.0  # plus a few far outliers
        assert np.array_equal(
            cluster_sorted_counts(noisy), _reference_cluster_sorted_counts(noisy)
        )


class TestSupportSparseMultiplicativeWeights:
    def _range_setup(self, seed, n=48, num_queries=30):
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, n, size=(num_queries, 2))
        queries = RangeQueries(n, [(min(a, b), max(a, b)) for a, b in pairs])
        x_true = rng.integers(0, 40, size=n).astype(np.float64)
        answers = queries.matvec(x_true) + rng.normal(0.0, 1.0, num_queries)
        return queries, answers, float(x_true.sum())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_dense_sequential(self, seed):
        queries, answers, total = self._range_setup(seed)
        sparse = multiplicative_weights(
            queries, answers, total=total, iterations=9, support_sparse=True
        )
        dense = multiplicative_weights(
            queries, answers, total=total, iterations=9, support_sparse=False
        )
        assert np.array_equal(sparse.x_hat, dense.x_hat)
        assert sparse.residual_norm == dense.residual_norm

    def test_bit_identical_on_blocked_uncached_path(self, monkeypatch):
        monkeypatch.setattr(mult_weights, "_ROW_CACHE_CELLS", 0)
        monkeypatch.setattr(mult_weights, "_ROW_BLOCK", 4)
        queries, answers, total = self._range_setup(3)
        sparse = multiplicative_weights(
            queries, answers, total=total, iterations=5, support_sparse=True
        )
        dense = multiplicative_weights(
            queries, answers, total=total, iterations=5, support_sparse=False
        )
        assert np.array_equal(sparse.x_hat, dense.x_hat)

    def test_auto_matches_both(self):
        queries, answers, total = self._range_setup(4)
        auto = multiplicative_weights(queries, answers, total=total, iterations=6)
        forced = multiplicative_weights(
            queries, answers, total=total, iterations=6, support_sparse=False
        )
        assert np.array_equal(auto.x_hat, forced.x_hat)

    def test_row_cache_matches_self_extraction(self):
        queries, answers, total = self._range_setup(5)
        rows = queries.rows(np.arange(queries.shape[0]))
        with_cache = multiplicative_weights(
            queries, answers, total=total, iterations=6, row_cache=rows
        )
        without = multiplicative_weights(queries, answers, total=total, iterations=6)
        assert np.array_equal(with_cache.x_hat, without.x_hat)

    def test_row_cache_shape_validated(self):
        queries, answers, total = self._range_setup(6)
        with pytest.raises(ValueError, match="row_cache"):
            multiplicative_weights(queries, answers, row_cache=np.zeros((2, 2)))


class TestTotalEstimation:
    def test_mean_of_total_like_rows(self):
        n = 16
        queries = VStack([Identity(n), Total(n), Total(n)])
        answers = np.concatenate([np.full(n, 3.0), [100.0, 110.0]])
        # Documented behaviour: the mean of the total-like rows' answers.
        assert estimate_total(queries, answers) == pytest.approx(105.0)
        result = multiplicative_weights(queries, answers, iterations=5)
        assert result.x_hat.sum() == pytest.approx(105.0, rel=1e-6)

    def test_all_ones_dense_row_detected(self):
        queries = DenseMatrix(np.vstack([np.eye(4), np.ones((1, 4))]))
        answers = np.array([1.0, 2.0, 3.0, 4.0, 42.0])
        assert estimate_total(queries, answers) == pytest.approx(42.0)

    def test_partial_coverage_row_is_not_total_like(self):
        # A row of 2s over half the cells has the right sum but not the right
        # squared sum; it must not be mistaken for a total query.
        row = np.zeros(8)
        row[:4] = 2.0
        queries = DenseMatrix(np.vstack([np.eye(8), row]))
        answers = np.concatenate([np.full(8, 1.0), [64.0]])
        assert estimate_total(queries, answers) == pytest.approx(64.0)  # max fallback

    def test_fallback_to_max_answer(self):
        queries = Identity(6)
        answers = np.array([1.0, -9.0, 2.0, 0.0, 3.0, 1.0])
        assert estimate_total(queries, answers) == pytest.approx(9.0)

    def test_fallback_floor_of_one(self):
        assert estimate_total(Identity(3), np.full(3, 0.25)) == 1.0

    def test_negative_noisy_total_floored(self):
        # A heavily-noised total row can come back negative; the estimate must
        # keep the same floor as the fallback or MW degenerates to NaN.
        queries = VStack([Identity(4), Total(4)])
        answers = np.concatenate([np.full(4, 2.0), [-30.0]])
        assert estimate_total(queries, answers) == 1.0
        result = multiplicative_weights(queries, answers, iterations=5)
        assert np.all(np.isfinite(result.x_hat))


class TestExpectedErrorEngine:
    @staticmethod
    def _per_row_pinv(workload, strategy, epsilon=1.0):
        """The seed's formula: a fresh pseudo-inverse for every workload row."""
        A = strategy.dense()
        gram_pinv = np.linalg.pinv(A.T @ A)
        sensitivity = float(np.abs(A).sum(axis=0).max())
        W = workload.dense()
        return float(
            sum(
                2.0 * sensitivity**2 / epsilon**2 * float(q @ gram_pinv @ q)
                for q in W
            )
        )

    @pytest.mark.parametrize(
        "workload,strategy",
        [
            (Prefix(32), Identity(32)),
            (Prefix(32), HierarchicalQueries(32)),
            (RangeQueries(24, [(0, 11), (3, 20), (7, 7)]), HierarchicalQueries(24)),
            (HierarchicalQueries(16), Prefix(16)),
        ],
    )
    def test_matches_per_row_pinv_formula(self, workload, strategy):
        assert expected_workload_error(workload, strategy, epsilon=0.7) == pytest.approx(
            self._per_row_pinv(workload, strategy, epsilon=0.7), rel=1e-8
        )

    def test_rank_deficient_strategy_matches_pinv(self):
        # A strategy that never observes cell 3: the Gram is singular and the
        # engine must fall back to the minimum-norm (pseudo-inverse) solve.
        rows = np.zeros((3, 4))
        rows[0, 0] = rows[1, 1] = rows[2, 2] = 1.0
        strategy = DenseMatrix(rows)
        workload = DenseMatrix(np.eye(4)[:3])  # queries within the observed span
        assert expected_workload_error(workload, strategy) == pytest.approx(
            self._per_row_pinv(workload, strategy), rel=1e-8
        )

    def test_query_error_is_thin_wrapper(self):
        q = np.zeros(16)
        q[2:9] = 1.0
        strategy = HierarchicalQueries(16)
        assert expected_query_error(q, strategy, epsilon=2.0) == pytest.approx(
            expected_workload_error(DenseMatrix(q.reshape(1, -1)), strategy, epsilon=2.0)
        )

    def test_query_error_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            expected_query_error(np.eye(3), Identity(3))

    def test_domain_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            expected_workload_error(Prefix(8), Identity(9))

    def test_sparse_gram_route(self):
        # A disjoint partition stacked on an identity has a sparse Gram; it
        # takes the augmented kind, and the result must still match the
        # dense pinv formula.
        from repro.matrix import ReductionMatrix

        strategy = VStack([ReductionMatrix(np.arange(24) // 4), Identity(24)])
        workload = RangeQueries(24, [(0, 23), (4, 9), (10, 10)])
        assert expected_workload_error(workload, strategy) == pytest.approx(
            self._per_row_pinv(workload, strategy), rel=1e-8
        )

    def test_blocked_trace_covers_all_rows(self, monkeypatch):
        from repro.analysis import error as error_module

        monkeypatch.setattr(error_module, "_ERROR_ROW_BLOCK", 3)
        workload = Prefix(10)
        strategy = Identity(10)
        assert expected_workload_error(workload, strategy) == pytest.approx(
            self._per_row_pinv(workload, strategy), rel=1e-8
        )
