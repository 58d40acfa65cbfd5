"""Unit tests for error metrics, classification utilities and harness helpers."""

import numpy as np
import pytest

from repro.analysis import (
    cross_validate_auc,
    expected_workload_error,
    fit_naive_bayes_exact,
    fit_naive_bayes_from_histograms,
    format_table,
    improvement_factors,
    majority_auc,
    per_query_l2_error,
    roc_auc,
)
from repro.dataset import synthetic_credit_default
from repro.matrix import DenseMatrix, HierarchicalQueries, Identity, Prefix, Total


class TestErrorMetrics:
    def test_zero_error_for_exact_estimate(self):
        x = np.arange(10.0)
        assert per_query_l2_error(Prefix(10), x, x) == 0.0

    def test_per_query_error_scales_with_records(self):
        x = np.full(10, 100.0)
        estimate = x + 10.0
        small_scale = per_query_l2_error(Identity(10), x, estimate, scale=10.0)
        large_scale = per_query_l2_error(Identity(10), x, estimate, scale=1000.0)
        assert small_scale > large_scale

    def test_expected_error_identity_vs_hierarchy_on_total_query(self):
        # For long-range queries (here: the full-domain total) a hierarchy beats
        # identity measurements, whose variance grows linearly with the range
        # length; the crossover for whole workloads happens at larger domains.
        n = 64
        identity_error = expected_workload_error(Total(n), Identity(n))
        hierarchy_error = expected_workload_error(Total(n), HierarchicalQueries(n))
        assert hierarchy_error < identity_error

    def test_expected_error_short_queries_prefer_identity(self):
        # Unit-length queries are answered best by measuring cells directly.
        n = 64
        unit_query = np.zeros((1, n))
        unit_query[0, 3] = 1.0
        assert expected_workload_error(
            DenseMatrix(unit_query), Identity(n)
        ) <= expected_workload_error(DenseMatrix(unit_query), HierarchicalQueries(n))

    def test_expected_workload_error_positive(self):
        assert expected_workload_error(Prefix(8), Identity(8)) > 0


class TestRocAuc:
    def test_perfect_separation(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        assert roc_auc(labels, scores) == 1.0

    def test_reverse_separation(self):
        labels = np.array([0, 0, 1, 1])
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        assert roc_auc(labels, scores) == 0.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, 2000)
        scores = rng.random(2000)
        assert abs(roc_auc(labels, scores) - 0.5) < 0.05

    def test_constant_scores_give_half(self):
        labels = np.array([0, 1, 0, 1])
        scores = np.zeros(4)
        assert roc_auc(labels, scores) == 0.5

    def test_single_class_returns_half(self):
        assert roc_auc(np.zeros(5), np.arange(5.0)) == 0.5

    def test_majority_baseline(self):
        assert majority_auc() == 0.5


class TestNaiveBayes:
    def test_fit_from_exact_histograms_matches_direct_fit(self):
        relation = synthetic_credit_default(num_records=5000, seed=0)
        predictors = ["education", "pay_0"]
        model = fit_naive_bayes_exact(relation, "default", predictors)
        label = relation.column("default")
        features = relation.records[:, [relation.schema.index_of(p) for p in predictors]]
        auc = roc_auc(label, model.decision_scores(features))
        assert auc > 0.6

    def test_fit_from_histograms_validates_label_shape(self):
        with pytest.raises(ValueError):
            fit_naive_bayes_from_histograms(np.ones(3), [np.ones((2, 4))])

    def test_noisy_histograms_are_clipped(self):
        label_hist = np.array([-5.0, 10.0])
        joint = np.array([[-1.0, 4.0], [2.0, 3.0]])
        model = fit_naive_bayes_from_histograms(label_hist, [joint])
        assert np.all(np.isfinite(model.class_log_prior))
        assert all(np.all(np.isfinite(t)) for t in model.feature_log_prob)

    def test_cross_validation_runs_all_folds(self):
        relation = synthetic_credit_default(num_records=2000, seed=1)
        predictors = ["pay_0"]

        def fit(train):
            return fit_naive_bayes_exact(train, "default", predictors)

        result = cross_validate_auc(relation, "default", predictors, fit, folds=5, repeats=2)
        assert len(result.aucs) == 10
        assert 0.4 < result.median <= 1.0
        assert result.percentile(25) <= result.percentile(75)


class TestHarnessHelpers:
    def test_format_table_aligns_columns(self):
        text = format_table(["name", "value"], [["a", 1.0], ["longer", 123456.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_improvement_factors(self):
        factors = improvement_factors([2.0, 4.0], [1.0, 8.0])
        assert np.allclose(factors, [2.0, 0.5])
