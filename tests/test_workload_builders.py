"""Unit tests for the workload builders."""

import numpy as np
import pytest

from repro.matrix import Prefix
from repro.workload import (
    census_prefix_income_workload,
    identity_workload,
    marginals_workload,
    naive_bayes_workload,
    prefix_workload,
    random_range_workload,
    two_way_marginals_workload,
)


class TestBasicWorkloads:
    def test_prefix_workload(self):
        w = prefix_workload(8)
        assert isinstance(w, Prefix)
        assert w.shape == (8, 8)

    def test_identity_workload_from_domain(self):
        assert identity_workload(12).shape == (12, 12)
        assert identity_workload((3, 4)).shape == (12, 12)

    def test_random_range_workload_is_seeded(self):
        a = random_range_workload(64, 20, seed=1)
        b = random_range_workload(64, 20, seed=1)
        c = random_range_workload(64, 20, seed=2)
        assert a.intervals == b.intervals
        assert a.intervals != c.intervals

    def test_random_range_respects_max_length(self):
        w = random_range_workload(128, 50, seed=0, max_length=5)
        assert all(hi - lo + 1 <= 5 for lo, hi in w.intervals)


class TestCensusWorkloads:
    def test_two_way_marginals_shape(self):
        domain = (3, 4, 2)
        w = two_way_marginals_workload(domain)
        expected_rows = 3 * 4 + 3 * 2 + 4 * 2
        assert w.shape == (expected_rows, 24)

    def test_two_way_marginal_answers(self):
        domain = (2, 2, 2)
        rng = np.random.default_rng(0)
        x = rng.integers(0, 5, 8).astype(float)
        w = two_way_marginals_workload(domain)
        answers = w.matvec(x)
        tensor = x.reshape(domain)
        expected_01 = tensor.sum(axis=2).ravel()
        assert np.allclose(answers[:4], expected_01)

    def test_census_prefix_income_workload(self):
        domain = (6, 3, 2)  # income, age, gender
        w = census_prefix_income_workload(domain, income_axis=0)
        # Income factor has 6 prefix rows; other factors contribute (1+3) and (1+2).
        assert w.shape == (6 * 4 * 3, 36)
        x = np.ones(36)
        answers = w.matvec(x)
        # First query: income <= bin0, any age, any gender -> 6 cells.
        assert answers[0] == 6.0

    def test_marginals_workload_groups(self):
        domain = (3, 2, 2)
        w = marginals_workload(domain, [[0], [1, 2]])
        assert w.shape == (3 + 4, 12)


class TestNaiveBayesWorkload:
    def test_shape_is_2k_plus_1_histograms(self):
        domain = (2, 5, 3)  # label + two predictors
        w = naive_bayes_workload(domain, label_axis=0, predictor_axes=[1, 2])
        expected_rows = 2 + 2 * 5 + 2 * 3
        assert w.shape == (expected_rows, 30)

    def test_answers_are_histogram_counts(self):
        domain = (2, 3)
        rng = np.random.default_rng(1)
        x = rng.integers(0, 10, 6).astype(float)
        w = naive_bayes_workload(domain, label_axis=0, predictor_axes=[1])
        answers = w.matvec(x)
        tensor = x.reshape(domain)
        assert np.allclose(answers[:2], tensor.sum(axis=1))
        assert np.allclose(answers[2:], tensor.ravel())
