"""Edge-case and error-path tests for the plan library."""

import numpy as np
import pytest

from repro.dataset import Attribute, Relation, Schema, load_1d, load_2d
from repro.matrix import Identity, Kronecker, Prefix, Total, VStack
from repro.plans import (
    AdaptiveGridPlan,
    AhpPlan,
    DawaPlan,
    DawaStripedPlan,
    GreedyHPlan,
    HdmmPlan,
    IdentityPlan,
    MwemPlan,
    MwemVariantB,
    MwemVariantC,
    MwemVariantD,
    PriveletPlan,
    PrivBayesLsPlan,
    UniformGridPlan,
    UniformPlan,
    cdf_estimator,
    naive_bayes,
    nb_select_ls,
)
from repro.plans.base import split_budget
from repro.private import protect
from repro.workload import random_range_workload
from tests.conftest import make_vector_relation


def _source(x, epsilon=1.0, seed=0):
    return protect(make_vector_relation(np.asarray(x, dtype=float)), epsilon, seed=seed).vectorize()


class TestErrorPaths:
    def test_privelet_rejects_non_power_of_two_domain(self):
        x = np.ones(100)
        source = _source(x)
        with pytest.raises(ValueError):
            PriveletPlan().run(source, 1.0)

    def test_hdmm_rejects_mismatched_workload(self):
        x = np.ones(64)
        source = _source(x)
        with pytest.raises(ValueError):
            HdmmPlan(Prefix(32)).run(source, 1.0)

    def test_mwem_rejects_mismatched_workload(self):
        x = np.ones(64)
        source = _source(x)
        with pytest.raises(ValueError):
            MwemPlan(Prefix(32)).run(source, 1.0)

    def test_uniform_grid_rejects_bad_shape(self):
        x = np.ones(64)
        source = _source(x)
        with pytest.raises(ValueError):
            UniformGridPlan((5, 5)).run(source, 1.0)

    def test_plan_with_zero_epsilon_rejected(self):
        x = np.ones(16)
        source = _source(x)
        with pytest.raises(ValueError):
            IdentityPlan().run(source, 0.0)


def _nb_select_ls(table, relation, monkeypatch):
    # SelectLS protects its training relation itself; hand it the test's kernel.
    monkeypatch.setattr(naive_bayes, "protect", lambda *args, **kwargs: table)
    nb_select_ls(relation, "label", ["x"], 0.5, dawa_share=1.5)


def _mwem_without_rounds(plan_class):
    def run(table, relation, monkeypatch):
        workload = random_range_workload(128, 10, seed=0)
        plan_class(workload, rounds=0).run(table.vectorize(), 0.5)

    return run


class TestBudgetSplitParameters:
    """An out-of-range budget split is rejected before the plan's first charge."""

    @pytest.fixture
    def relation(self):
        # label x 64 cells: SelectLS's joint histogram (128 cells) takes the
        # DAWA subplan, and the 128-cell vector fits every plan below.
        counts = np.random.default_rng(3).integers(0, 30, size=128)
        schema = Schema.build([Attribute("label", 2), Attribute("x", 64)])
        return Relation.from_histogram(schema, counts)

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(
                lambda t, r, m: AhpPlan(partition_share=1.5).run(t.vectorize(), 0.5),
                id="AHP",
            ),
            pytest.param(
                lambda t, r, m: DawaPlan(partition_share=2.0).run(t.vectorize(), 0.5),
                id="DAWA",
            ),
            pytest.param(
                lambda t, r, m: DawaStripedPlan((2, 64), 1, partition_share=1.5).run(
                    t.vectorize(), 0.5
                ),
                id="DAWA-Striped",
            ),
            pytest.param(
                lambda t, r, m: AdaptiveGridPlan((8, 16), first_level_share=1.5).run(
                    t.vectorize(), 0.5
                ),
                id="AdaptiveGrid",
            ),
            pytest.param(
                lambda t, r, m: cdf_estimator(t, "x", 0.5, partition_share=1.5),
                id="cdf_estimator",
            ),
            pytest.param(_nb_select_ls, id="nb_select_ls"),
            pytest.param(
                lambda t, r, m: PrivBayesLsPlan((2, 64), select_share=1.2).run(
                    t.vectorize(), 0.5
                ),
                id="PrivBayesLS",
            ),
            pytest.param(_mwem_without_rounds(MwemPlan), id="MWEM"),
            pytest.param(_mwem_without_rounds(MwemVariantB), id="MWEM-b"),
            pytest.param(_mwem_without_rounds(MwemVariantC), id="MWEM-c"),
            pytest.param(_mwem_without_rounds(MwemVariantD), id="MWEM-d"),
        ],
    )
    def test_rejected_before_spending(self, run, relation, monkeypatch):
        table = protect(relation, 10.0, seed=0)
        with pytest.raises(ValueError):
            run(table, relation, monkeypatch)
        assert table.budget_consumed() == 0.0

    def test_split_keeps_the_plans_arithmetic(self):
        assert split_budget(0.5, 0.25) == (0.25 * 0.5, 0.5 - 0.25 * 0.5)
        for share in (0.0, 1.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="share"):
                split_budget(1.0, share)


class TestSmallDomains:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_and_uniform_on_tiny_domains(self, n):
        x = np.arange(n, dtype=float) + 1.0
        for plan in [IdentityPlan(), UniformPlan()]:
            source = _source(x, epsilon=10.0, seed=1)
            result = plan.run(source, 10.0)
            assert result.x_hat.shape == (n,)

    def test_dawa_on_tiny_domain(self):
        x = np.array([5.0, 5.0, 50.0, 50.0])
        source = _source(x, epsilon=5.0, seed=2)
        result = DawaPlan().run(source, 5.0)
        assert result.x_hat.shape == (4,)

    def test_ahp_on_all_zero_data(self):
        x = np.zeros(32)
        source = _source(x, epsilon=1.0, seed=3)
        result = AhpPlan().run(source, 1.0)
        assert np.all(np.isfinite(result.x_hat))

    def test_greedy_h_without_workload(self):
        x = load_1d("GAUSSIAN", 64, 5000)
        source = _source(x, epsilon=1.0, seed=4)
        result = GreedyHPlan().run(source, 1.0)
        assert result.budget_spent == pytest.approx(1.0)

    def test_mwem_single_round(self):
        x = load_1d("BIMODAL", 32, 5000)
        workload = random_range_workload(32, 10, seed=1)
        source = _source(x, epsilon=0.5, seed=5)
        result = MwemPlan(workload, rounds=1).run(source, 0.5)
        assert result.info["rounds"] == 1


class TestHdmmWorkloadShapes:
    def test_union_of_mixed_krons_falls_back_gracefully(self):
        w = VStack(
            [
                Kronecker([Prefix(4), Total(3)]),
                Kronecker([Identity(4), Identity(3)]),
            ]
        )
        x = np.arange(12, dtype=float)
        source = _source(x, epsilon=2.0, seed=6)
        result = HdmmPlan(w).run(source, 2.0)
        assert result.x_hat.shape == (12,)

    def test_plain_dense_workload(self):
        rng = np.random.default_rng(0)
        from repro.matrix import DenseMatrix

        w = DenseMatrix(rng.integers(0, 2, size=(5, 16)).astype(float))
        x = rng.integers(0, 20, 16).astype(float)
        source = _source(x, epsilon=2.0, seed=7)
        result = HdmmPlan(w).run(source, 2.0)
        assert result.budget_spent == pytest.approx(2.0)


class TestInfoDiagnostics:
    def test_plan_results_carry_diagnostics(self):
        x = load_1d("PIECEWISE", 64, 10_000)
        source = _source(x, epsilon=1.0, seed=8)
        result = AhpPlan().run(source, 1.0)
        assert "num_groups" in result.info
        assert 1 <= result.info["num_groups"] <= 64

    def test_adaptive_grid_reports_second_level(self):
        from repro.plans import AdaptiveGridPlan

        x = load_2d("GAUSS2D", (16, 16), 100_000)
        source = _source(x, epsilon=1.0, seed=9)
        result = AdaptiveGridPlan((16, 16)).run(source, 1.0)
        assert "second_level_blocks" in result.info
