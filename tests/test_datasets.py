"""Unit tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.dataset import (
    CENSUS_DOMAIN,
    DATASETS_1D,
    PREDICTOR_DOMAIN,
    census_schema,
    load_1d,
    load_2d,
    small_census,
    synthetic_cps,
    synthetic_credit_default,
)


class TestCensus:
    def test_schema_matches_paper_domain(self):
        schema = census_schema()
        assert schema.domain == CENSUS_DOMAIN
        assert schema.domain_size == 1_400_000

    def test_synthetic_cps_is_deterministic(self):
        a = synthetic_cps(num_records=500, income_bins=20, seed=3)
        b = synthetic_cps(num_records=500, income_bins=20, seed=3)
        assert np.array_equal(a.records, b.records)

    def test_different_seeds_differ(self):
        a = synthetic_cps(num_records=500, income_bins=20, seed=3)
        b = synthetic_cps(num_records=500, income_bins=20, seed=4)
        assert not np.array_equal(a.records, b.records)

    def test_small_census_domains(self):
        rel = small_census(num_records=1000, seed=1)
        assert rel.schema.domain == (50, 5, 7, 4, 2)
        assert len(rel) == 1000

    def test_income_correlates_with_age(self):
        rel = small_census(num_records=20000, seed=2)
        income = rel.column("income").astype(float)
        age = rel.column("age").astype(float)
        young = income[age <= 1].mean()
        mid = income[(age >= 2) & (age <= 3)].mean()
        assert mid > young  # mid-career earns more than early-career

    def test_all_values_in_domain(self):
        rel = small_census(num_records=2000, seed=5)
        for j, attr in enumerate(rel.schema):
            col = rel.records[:, j]
            assert col.min() >= 0
            assert col.max() < attr.size


class TestCredit:
    def test_predictor_domain_size_matches_paper(self):
        assert int(np.prod(PREDICTOR_DOMAIN)) == 17_248

    def test_label_prevalence_reasonable(self):
        rel = synthetic_credit_default(num_records=20000, seed=0)
        rate = rel.column("default").mean()
        assert 0.1 < rate < 0.5

    def test_pay_status_predicts_default(self):
        rel = synthetic_credit_default(num_records=30000, seed=1)
        label = rel.column("default")
        pay = rel.column("pay_0")
        high_delay = label[pay >= 5].mean()
        low_delay = label[pay <= 2].mean()
        assert high_delay > low_delay + 0.2

    def test_deterministic(self):
        a = synthetic_credit_default(num_records=1000, seed=9)
        b = synthetic_credit_default(num_records=1000, seed=9)
        assert np.array_equal(a.records, b.records)


class TestDpbench:
    def test_all_named_datasets_load(self):
        for name in DATASETS_1D:
            x = load_1d(name, n=256, scale=5000)
            assert x.shape == (256,)
            assert np.all(x >= 0)
            assert np.isclose(x.sum(), 5000)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(KeyError):
            load_1d("NOPE", 64)

    def test_seed_controls_output(self):
        a = load_1d("GAUSSIAN", 128, 1000, seed=1)
        b = load_1d("GAUSSIAN", 128, 1000, seed=2)
        assert not np.array_equal(a, b)

    def test_sparse_dataset_is_sparse(self):
        x = load_1d("SPARSE", 1024, 100_000)
        assert (x == 0).mean() > 0.5

    def test_uniform_dataset_is_flat(self):
        x = load_1d("UNIFORM", 128, 1_000_000)
        assert x.std() / x.mean() < 0.2

    def test_2d_datasets(self):
        for name in ["UNIFORM2D", "GAUSS2D", "MIXTURE2D", "SPARSE2D"]:
            x = load_2d(name, (16, 24), 2000)
            assert x.shape == (16 * 24,)
            assert np.isclose(x.sum(), 2000)

    def test_2d_unknown_rejected(self):
        with pytest.raises(KeyError):
            load_2d("NOPE", (8, 8))
