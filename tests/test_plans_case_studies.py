"""Tests for the case-study plans: MWEM variants, striped census plans, PrivBayes,
the CDF estimator and the Naive Bayes plans (Sec. 9)."""

import math

import numpy as np
import pytest

from repro.accounting import ZCDPAccountant, zcdp_rho_for_epsilon_delta
from repro.analysis import per_query_l2_error, roc_auc
from repro.dataset import load_1d, small_census, synthetic_credit_default
from repro.matrix import DenseMatrix, VStack
from repro.operators.inference import multiplicative_weights, nnls_with_total
from repro.operators.selection.worst_approx import augment_with_hierarchy, worst_approximated
from repro.plans import (
    DawaStripedPlan,
    HbStripedKronPlan,
    HbStripedPlan,
    IdentityPlan,
    MwemPlan,
    MwemVariantB,
    MwemVariantC,
    MwemVariantD,
    PrivBayesLsPlan,
    PrivBayesPlan,
    cdf_estimator,
    nb_identity,
    nb_select_ls,
    nb_workload,
    nb_workload_ls,
)
from repro.private import protect
from repro.workload import random_range_workload, two_way_marginals_workload
from tests.conftest import make_vector_relation


def _source(x, epsilon=1.0, seed=0):
    return protect(make_vector_relation(np.asarray(x, dtype=float)), epsilon, seed=seed).vectorize()


class TestMwemVariants:
    @pytest.fixture(scope="class")
    def setup(self):
        x = load_1d("BIMODAL", n=128, scale=20_000)
        workload = random_range_workload(128, 40, seed=11)
        return x, workload

    @pytest.mark.parametrize("variant", [MwemVariantB, MwemVariantC, MwemVariantD])
    def test_runs_and_spends_exact_budget(self, variant, setup):
        x, workload = setup
        plan = variant(workload, rounds=4)
        source = _source(x, epsilon=0.5, seed=1)
        result = plan.run(source, 0.5)
        assert result.budget_spent == pytest.approx(0.5, abs=1e-9)
        assert np.all(np.isfinite(result.x_hat))

    @pytest.mark.parametrize(
        "plan_class", [MwemPlan, MwemVariantB, MwemVariantC, MwemVariantD]
    )
    def test_rounds_are_the_operator_sequence(self, plan_class, setup):
        """Each plan is SW, optionally SH2, LM, then MW or NLS, round by round."""
        x, workload = setup
        n, total, epsilon = x.size, float(x.sum()), 0.5
        plan = plan_class(workload, rounds=2, total_records=total)
        result = plan.run(_source(x, epsilon, seed=3), epsilon)

        source = _source(x, epsilon, seed=3)
        per_round = epsilon / 2
        x_hat = np.full(n, total / n)
        matrices, answers = [], []
        for round_index in range(2):
            _, row = worst_approximated(source, workload, x_hat, per_round / 2)
            if plan_class in (MwemVariantB, MwemVariantD):
                measurement = augment_with_hierarchy(row, round_index, n)
            else:
                measurement = DenseMatrix(row.reshape(1, -1))
            matrices.append(measurement)
            answers.append(source.vector_laplace(measurement, per_round / 2))
            stacked = matrices[0] if len(matrices) == 1 else VStack(matrices)
            if plan_class in (MwemVariantC, MwemVariantD):
                x_hat = nnls_with_total(stacked, np.concatenate(answers), total=total).x_hat
            else:
                x_hat = multiplicative_weights(
                    stacked, np.concatenate(answers), total=total, x0=x_hat, iterations=10
                ).x_hat
        assert result.x_hat.tobytes() == x_hat.tobytes()
        assert result.budget_spent == source.budget_consumed()

    def test_variant_takes_gaussian_noise_under_zcdp(self, setup):
        x, workload = setup
        relation = make_vector_relation(np.asarray(x, dtype=float))
        source = protect(
            relation, seed=4, accountant=ZCDPAccountant(epsilon=5.0, delta=1e-6)
        ).vectorize()
        plan = MwemVariantD(workload, rounds=3, total_records=float(x.sum()), noise="gaussian")
        result = plan.run(source, 0.6)
        history = source.kernel.history()
        assert [r.operator for r in history] == ["ExponentialMechanism", "VectorGaussian"] * 3
        half_round = 0.6 / 3 / 2
        rho = 3 * (half_round**2 / 8 + zcdp_rho_for_epsilon_delta(half_round, 1e-6))
        assert result.budget_spent == pytest.approx(rho, rel=1e-12)
        assert result.budget_spent == pytest.approx(math.fsum(r.cost for r in history))

    def test_variant_b_measures_more_queries_per_round(self, setup):
        x, workload = setup
        base = MwemPlan(workload, rounds=4)
        variant = MwemVariantB(workload, rounds=4)
        base_result = base.run(_source(x, 1.0, seed=2), 1.0)
        variant_result = variant.run(_source(x, 1.0, seed=2), 1.0)
        assert variant_result.info["measured_queries"] > base_result.info["rounds"]

    def test_augmented_variants_improve_error_on_average(self, setup):
        x, workload = setup
        base_errors, variant_errors = [], []
        for seed in range(4):
            base = MwemPlan(workload, rounds=5).run(_source(x, 0.1, seed=seed), 0.1)
            augmented = MwemVariantD(workload, rounds=5).run(_source(x, 0.1, seed=seed + 50), 0.1)
            base_errors.append(per_query_l2_error(workload, x, base.x_hat))
            variant_errors.append(per_query_l2_error(workload, x, augmented.x_hat))
        assert np.mean(variant_errors) < np.mean(base_errors) * 1.5  # not catastrophically worse
        # And in the typical case it is actually better.
        assert np.median(variant_errors) <= np.median(base_errors) * 1.1


class TestStripedPlans:
    @pytest.fixture(scope="class")
    def census(self):
        relation = small_census(4000, seed=21)
        return relation, relation.vectorize(), relation.schema.domain

    @pytest.mark.parametrize(
        "factory",
        [
            lambda domain: HbStripedPlan(domain, stripe_axis=0),
            lambda domain: DawaStripedPlan(domain, stripe_axis=0),
            lambda domain: HbStripedKronPlan(domain, stripe_axis=0),
        ],
    )
    def test_runs_and_spends_exact_budget(self, factory, census):
        relation, x_true, domain = census
        plan = factory(domain)
        source = protect(relation, 1.0, seed=5).vectorize()
        result = plan.run(source, 1.0)
        assert result.x_hat.shape == (relation.domain_size,)
        assert result.budget_spent == pytest.approx(1.0, abs=1e-9)

    def test_striped_beats_identity_at_small_epsilon(self, census):
        relation, x_true, domain = census
        workload = two_way_marginals_workload(domain)
        epsilon = 0.05
        identity_result = IdentityPlan().run(protect(relation, epsilon, seed=1).vectorize(), epsilon)
        striped_result = DawaStripedPlan(domain, stripe_axis=0).run(
            protect(relation, epsilon, seed=2).vectorize(), epsilon
        )
        identity_error = per_query_l2_error(workload, x_true, identity_result.x_hat)
        striped_error = per_query_l2_error(workload, x_true, striped_result.x_hat)
        assert striped_error < identity_error

    def test_kron_and_partition_formulations_are_consistent(self, census):
        relation, x_true, domain = census
        workload = two_way_marginals_workload(domain)
        errors = {}
        for name, plan in [
            ("partition", HbStripedPlan(domain, stripe_axis=0)),
            ("kron", HbStripedKronPlan(domain, stripe_axis=0)),
        ]:
            result = plan.run(protect(relation, 1.0, seed=9).vectorize(), 1.0)
            errors[name] = per_query_l2_error(workload, x_true, result.x_hat)
        # Same measurement strategy, same budget: errors within a small factor.
        ratio = errors["partition"] / errors["kron"]
        assert 0.2 < ratio < 5.0

    def test_domain_mismatch_rejected(self, census):
        relation, _, domain = census
        source = protect(relation, 1.0, seed=0).vectorize()
        with pytest.raises(ValueError):
            HbStripedPlan((10, 10), stripe_axis=0).run(source, 1.0)


class TestPrivBayesPlans:
    @pytest.fixture(scope="class")
    def census(self):
        relation = small_census(4000, seed=31)
        return relation, relation.vectorize(), relation.schema.domain

    @pytest.mark.parametrize("factory", [PrivBayesPlan, PrivBayesLsPlan])
    def test_runs_and_spends_exact_budget(self, factory, census):
        relation, x_true, domain = census
        plan = factory(domain, seed=1)
        source = protect(relation, 1.0, seed=3).vectorize()
        result = plan.run(source, 1.0)
        assert result.budget_spent == pytest.approx(1.0, abs=1e-9)
        assert np.all(result.x_hat >= -1e-9)

    def test_ls_variant_error_is_comparable(self, census):
        # On the paper's 1.4M-cell census, swapping the factorised combine for
        # least squares improves error (Table 5); on this scaled-down test
        # census the factorised baseline is competitive, so here we only check
        # that the LS variant runs and stays within an order of magnitude.
        # The full-domain comparison is produced by bench_table5_census.
        relation, x_true, domain = census
        workload = two_way_marginals_workload(domain)
        baseline_errors, ls_errors = [], []
        for seed in range(3):
            baseline = PrivBayesPlan(domain, seed=seed).run(
                protect(relation, 0.5, seed=seed).vectorize(), 0.5
            )
            with_ls = PrivBayesLsPlan(domain, seed=seed).run(
                protect(relation, 0.5, seed=seed + 40).vectorize(), 0.5
            )
            baseline_errors.append(per_query_l2_error(workload, x_true, baseline.x_hat))
            ls_errors.append(per_query_l2_error(workload, x_true, with_ls.x_hat))
        assert np.all(np.isfinite(ls_errors))
        assert np.mean(ls_errors) <= np.mean(baseline_errors) * 20.0


class TestCdfEstimator:
    def test_returns_nondecreasing_cdf(self):
        relation = small_census(3000, seed=41)
        source = protect(relation, 1.0, seed=1)
        cdf = cdf_estimator(source, "income", 1.0, where={"gender": 0})
        assert cdf.shape == (50,)
        assert np.all(np.diff(cdf) >= -1e-9)

    def test_cdf_tracks_truth_at_high_epsilon(self):
        relation = small_census(3000, seed=42)
        filtered = relation.where({"gender": 0})
        truth = np.cumsum(filtered.projection_vector(["income"]))
        source = protect(relation, 100.0, seed=2)
        cdf = cdf_estimator(source, "income", 100.0, where={"gender": 0})
        assert np.abs(cdf - truth).max() / truth.max() < 0.1

    def test_filter_reduces_total(self):
        relation = small_census(3000, seed=43)
        source = protect(relation, 50.0, seed=3)
        cdf_male = cdf_estimator(source, "income", 25.0, where={"gender": 0})
        source2 = protect(relation, 50.0, seed=4)
        cdf_all = cdf_estimator(source2, "income", 25.0)
        assert cdf_male[-1] < cdf_all[-1]


class TestNaiveBayesPlans:
    @pytest.fixture(scope="class")
    def credit(self):
        relation = synthetic_credit_default(num_records=6000, seed=51)
        predictors = ["education", "marriage", "age", "pay_0"]
        features = relation.records[:, [relation.schema.index_of(p) for p in predictors]]
        return relation, predictors, features

    @pytest.mark.parametrize("fit", [nb_identity, nb_workload, nb_workload_ls, nb_select_ls])
    def test_fits_a_valid_model(self, fit, credit):
        relation, predictors, features = credit
        model = fit(relation, "default", predictors, epsilon=1.0, seed=1)
        scores = model.decision_scores(features)
        assert np.all(np.isfinite(scores))
        auc = roc_auc(relation.column("default"), scores)
        assert 0.4 <= auc <= 1.0

    def test_high_epsilon_approaches_exact_model(self, credit):
        relation, predictors, features = credit
        from repro.analysis import fit_naive_bayes_exact

        exact = fit_naive_bayes_exact(relation, "default", predictors)
        exact_auc = roc_auc(relation.column("default"), exact.decision_scores(features))
        dp = nb_workload_ls(relation, "default", predictors, epsilon=50.0, seed=2)
        dp_auc = roc_auc(relation.column("default"), dp.decision_scores(features))
        assert dp_auc > exact_auc - 0.03

    def test_select_ls_beats_identity_at_small_epsilon(self, credit):
        relation, predictors, features = credit
        label = relation.column("default")
        identity_aucs, select_aucs = [], []
        for seed in range(3):
            identity_model = nb_identity(relation, "default", predictors, epsilon=0.05, seed=seed)
            select_model = nb_select_ls(relation, "default", predictors, epsilon=0.05, seed=seed)
            identity_aucs.append(roc_auc(label, identity_model.decision_scores(features)))
            select_aucs.append(roc_auc(label, select_model.decision_scores(features)))
        assert np.mean(select_aucs) > np.mean(identity_aucs)
