"""Plan registry tests and end-to-end integration tests."""

import numpy as np
import pytest

from repro.analysis import per_query_l2_error
from repro.dataset import load_1d, small_census
from repro.matrix import Prefix
from repro.plans import (
    PLAN_TABLE,
    PLANS_BY_ID,
    PLANS_BY_NAME,
    PlanResult,
    get_plan,
    with_representation,
)
from repro.private import protect
from repro.workload import prefix_workload, random_range_workload
from tests.conftest import make_vector_relation


class TestRegistry:
    def test_all_twenty_plan_ids_present(self):
        assert set(PLANS_BY_ID) == set(range(1, 21))

    def test_signatures_match_figure_two(self):
        assert PLANS_BY_NAME["Identity"].signature == "SI LM"
        assert PLANS_BY_NAME["DAWA"].signature == "PD TR SG LM LS"
        assert PLANS_BY_NAME["MWEM variant d"].signature == "I:( SW SH2 LM NLS )"
        assert PLANS_BY_NAME["HB-Striped_kron"].signature == "SS LM LS"

    def test_every_entry_has_a_factory(self):
        for entry in PLAN_TABLE:
            assert callable(entry.factory)

    def test_get_plan_by_name(self):
        plan = get_plan("Uniform")
        assert plan.name == "Uniform"

    def test_get_plan_unknown_name(self):
        with pytest.raises(KeyError):
            get_plan("NotAPlan")


class TestPlanResult:
    def test_answer_uses_estimate(self):
        result = PlanResult(np.array([1.0, 2.0, 3.0]), budget_spent=0.5)
        answers = result.answer(Prefix(3))
        assert np.allclose(answers, [1.0, 3.0, 6.0])

    def test_with_representation_round_trip(self):
        m = Prefix(6)
        for representation in ("implicit", "sparse", "dense"):
            converted = with_representation(m, representation)
            assert np.allclose(converted.dense(), m.dense())

    def test_with_representation_rejects_unknown(self):
        with pytest.raises(ValueError):
            with_representation(Prefix(4), "quantum")


class TestEndToEnd:
    """Full pipeline: relation -> protected kernel -> plan -> workload answers."""

    def test_prefix_workload_pipeline(self):
        x = load_1d("EXPDECAY", n=64, scale=30_000)
        relation = make_vector_relation(x)
        source = protect(relation, 1.0, seed=0).vectorize()
        plan = get_plan("Hierarchical Opt (HB)")
        result = plan.run(source, 1.0)
        workload = prefix_workload(64)
        answers = result.answer(workload)
        truth = workload.matvec(x)
        assert np.abs(answers - truth).max() / truth.max() < 0.1

    def test_census_tabulation_pipeline(self):
        relation = small_census(3000, seed=61)
        domain = relation.schema.domain
        source = protect(relation, 1.0, seed=1).vectorize()
        plan = get_plan("DAWA-Striped", domain=domain, stripe_axis=0)
        result = plan.run(source, 1.0)
        assert result.budget_spent == pytest.approx(1.0)
        workload = random_range_workload(relation.domain_size, 20, seed=3)
        assert np.all(np.isfinite(result.answer(workload)))

    def test_multiple_plans_share_one_budget(self):
        x = load_1d("GAUSSIAN", n=64, scale=10_000)
        relation = make_vector_relation(x)
        source = protect(relation, 1.0, seed=2).vectorize()
        first = get_plan("Identity").run(source, 0.5)
        second = get_plan("Hierarchical (H2)").run(source, 0.5)
        assert source.budget_consumed() == pytest.approx(1.0)
        from repro.private import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            get_plan("Uniform").run(source, 0.1)

    def test_inference_combines_measurements_from_both_plans(self):
        # Measurements taken by different plans can be pooled in one global
        # least-squares inference (the "inference: impact on accuracy" claim).
        from repro.matrix import Identity as IdentityMatrix
        from repro.matrix import VStack
        from repro.operators.inference import least_squares

        x = load_1d("STAIRCASE", n=32, scale=20_000)
        relation = make_vector_relation(x)
        source = protect(relation, 2.0, seed=3).vectorize()
        m1 = IdentityMatrix(32)
        y1 = source.vector_laplace(m1, 1.0)
        m2 = Prefix(32)
        y2 = source.vector_laplace(m2, 1.0)
        # Each part weighted by the inverse of its noise scale: 1 and 32.
        weights = np.concatenate([np.ones(32), np.full(32, 1.0 / 32.0)])
        combined = least_squares(VStack([m1, m2]), np.concatenate([y1, y2]), weights=weights)
        single = least_squares(m1, y1)
        workload = prefix_workload(32)
        combined_error = per_query_l2_error(workload, x, combined.x_hat)
        single_error = per_query_l2_error(workload, x, single.x_hat)
        assert combined_error <= single_error * 1.05

    def test_workload_reduction_end_to_end(self):
        from repro.operators.partition import workload_based_partition

        x = load_1d("CLUSTERED", n=128, scale=40_000)
        relation = make_vector_relation(x)
        workload = random_range_workload(128, 10, seed=4, max_length=8)
        partition = workload_based_partition(workload)
        assert partition.num_groups < 128

        source = protect(relation, 1.0, seed=5).vectorize()
        reduced = source.reduce_by_partition(partition)
        from repro.matrix import Identity as IdentityMatrix

        noisy = reduced.vector_laplace(IdentityMatrix(reduced.domain_size), 1.0)
        reduced_workload = partition.reduce_workload(workload)
        answers = reduced_workload.matvec(noisy)
        truth = workload.matvec(x)
        assert np.abs(answers - truth).mean() / max(truth.mean(), 1.0) < 0.05
