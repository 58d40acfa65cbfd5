"""Unit tests for the protected kernel and client handles."""

import math

import numpy as np
import pytest

from repro.accounting import ApproxDPAccountant
from repro.dataset import Attribute, Relation, Schema
from repro.durability import FaultInjector, InjectedFault
from repro.matrix import DenseMatrix, Identity, Prefix, ReductionMatrix, Total
from repro.private import (
    BudgetExceededError,
    InvalidTransformationError,
    ProtectedKernel,
    UnknownSourceError,
    protect,
)


@pytest.fixture
def relation():
    schema = Schema.build([Attribute("a", 4), Attribute("b", 3)])
    rng = np.random.default_rng(0)
    records = np.column_stack([rng.integers(0, 4, 200), rng.integers(0, 3, 200)])
    return Relation(schema, records)


class TestKernelBasics:
    def test_initial_state(self, relation):
        kernel = ProtectedKernel(relation, epsilon_total=1.0, seed=0)
        assert kernel.budget_consumed() == 0.0
        assert kernel.budget_remaining() == 1.0
        assert kernel.source_kind("root") == "table"
        assert kernel.domain_size("root") == 12

    def test_unknown_source(self, relation):
        kernel = ProtectedKernel(relation, 1.0)
        with pytest.raises(UnknownSourceError):
            kernel.domain_size("nope")

    def test_vectorize_creates_vector_source(self, relation):
        kernel = ProtectedKernel(relation, 1.0)
        name = kernel.transform_vectorize("root")
        assert kernel.source_kind(name) == "vector"
        assert kernel.domain_size(name) == 12

    def test_vector_ops_rejected_on_tables(self, relation):
        kernel = ProtectedKernel(relation, 1.0, seed=0)
        with pytest.raises(InvalidTransformationError):
            kernel.measure_vector_laplace("root", Identity(12), 0.1)

    def test_table_ops_rejected_on_vectors(self, relation):
        kernel = ProtectedKernel(relation, 1.0, seed=0)
        vec = kernel.transform_vectorize("root")
        with pytest.raises(InvalidTransformationError):
            kernel.transform_where(vec, {"a": 1})

    def test_measurement_spends_budget_and_records_history(self, relation):
        kernel = ProtectedKernel(relation, 1.0, seed=0)
        vec = kernel.transform_vectorize("root")
        kernel.measure_vector_laplace(vec, Identity(12), 0.25)
        assert kernel.budget_consumed() == pytest.approx(0.25)
        history = kernel.history()
        assert len(history) == 1
        assert history[0].operator == "VectorLaplace"
        assert history[0].epsilon == 0.25

    def test_budget_exceeded_raises(self, relation):
        kernel = ProtectedKernel(relation, 0.5, seed=0)
        vec = kernel.transform_vectorize("root")
        kernel.measure_vector_laplace(vec, Identity(12), 0.4)
        with pytest.raises(BudgetExceededError):
            kernel.measure_vector_laplace(vec, Identity(12), 0.2)
        # The failed request leaves the consumed budget unchanged.
        assert kernel.budget_consumed() == pytest.approx(0.4)

    def test_nonpositive_epsilon_rejected(self, relation):
        kernel = ProtectedKernel(relation, 1.0, seed=0)
        vec = kernel.transform_vectorize("root")
        with pytest.raises(ValueError):
            kernel.measure_vector_laplace(vec, Identity(12), 0.0)

    def test_query_matrix_shape_checked(self, relation):
        kernel = ProtectedKernel(relation, 1.0, seed=0)
        vec = kernel.transform_vectorize("root")
        with pytest.raises(InvalidTransformationError):
            kernel.measure_vector_laplace(vec, Identity(5), 0.1)

    def test_noisy_count(self, relation):
        kernel = ProtectedKernel(relation, 1.0, seed=0)
        count = kernel.measure_noisy_count("root", 0.5)
        assert abs(count - len(relation)) < 100
        assert kernel.budget_consumed() == pytest.approx(0.5)

    def test_group_by_has_stability_two(self, relation):
        kernel = ProtectedKernel(relation, 1.0, seed=0)
        groups = kernel.transform_group_by("root", "b")
        any_group = next(iter(groups.values()))
        assert kernel.cumulative_stability(any_group) == 2.0


class TestLinearTransform:
    """``x' = M x`` is ``||M||_1``-stable (Sec. 5.1): its stability is M's
    largest column L1 norm, and a measurement downstream costs that many
    times its ε at the root."""

    def test_stability_is_the_largest_column_l1_norm(self, relation):
        matrix = np.zeros((4, 12))
        matrix[0, :] = 1.0
        matrix[1, :6] = 1.0
        matrix[2, 0] = -1.0  # column 0: |1| + |1| + |-1| = 3
        kernel = ProtectedKernel(relation, 4.0, seed=0)
        vec = kernel.transform_vectorize("root")
        derived = kernel.transform_linear(vec, DenseMatrix(matrix))
        assert kernel.source_kind(derived) == "vector"
        assert kernel.domain_size(derived) == 4
        assert kernel.cumulative_stability(derived) == 3.0
        kernel.measure_vector_laplace(derived, Identity(4), 0.5)
        assert kernel.budget_consumed() == pytest.approx(1.5)
        assert kernel.budget_tracker.ledger()[-1].primary == pytest.approx(1.5)

    def test_prefix_is_n_stable_through_the_handle(self):
        values = np.arange(8, dtype=np.float64)
        relation = Relation.from_histogram(Schema.build([Attribute("x", 8)]), values)
        derived = protect(relation, 1.0, seed=0).vectorize().linear_transform(Prefix(8))
        assert derived.domain_size == 8
        derived.vector_laplace(Identity(8), 0.1)
        assert derived.budget_consumed() == pytest.approx(8 * 0.1)

    def test_wrong_column_count_raises_before_any_charge(self, relation):
        kernel = ProtectedKernel(relation, 4.0, seed=0)
        vec = kernel.transform_vectorize("root")
        with pytest.raises(InvalidTransformationError, match="12 cells"):
            kernel.transform_linear(vec, Prefix(8))
        assert kernel.budget_consumed() == 0.0
        assert kernel.budget_tracker.num_charges == 0 and kernel.history() == []


class TestNoiseCalibration:
    def test_identity_noise_scale(self, relation):
        kernel = ProtectedKernel(relation, 100.0, seed=1)
        vec = kernel.transform_vectorize("root")
        answers = kernel.measure_vector_laplace(vec, Identity(12), 50.0)
        truth = relation.vectorize()
        # With epsilon=50 and sensitivity 1, noise is tiny.
        assert np.allclose(answers, truth, atol=1.5)

    def test_sensitivity_scales_noise(self, relation):
        # A matrix with L1 norm k inflates the noise scale by k; check the
        # recorded scale rather than sampling statistics.
        kernel = ProtectedKernel(relation, 10.0, seed=2)
        vec = kernel.transform_vectorize("root")
        from repro.matrix import Ones

        kernel.measure_vector_laplace(vec, Ones(5, 12), 1.0)
        assert kernel.history()[-1].noise_scale == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "queries, epsilon, scale",
        [(Identity(12), 0.5, 2.0), (Prefix(12), 1.0, 12.0), (Total(12), 2.0, 0.5)],
        ids=["identity", "prefix", "total"],
    )
    def test_laplace_scale_is_sensitivity_over_epsilon(
        self, relation, queries, epsilon, scale
    ):
        kernel = ProtectedKernel(relation, 4.0, seed=0)
        vec = kernel.transform_vectorize("root")
        kernel.measure_vector_laplace(vec, queries, epsilon)
        assert kernel.history()[-1].noise_scale == pytest.approx(scale)

    def test_approx_dp_gaussian_scale_is_the_analytic_sigma(self, relation):
        # sigma = ||M||_2 * sqrt(2 ln(1.25 / delta)) / eps; Prefix(12)'s first
        # column holds 12 ones, so ||M||_2 = sqrt(12).
        kernel = ProtectedKernel(relation, seed=0, accountant=ApproxDPAccountant(4.0, 1e-3))
        vec = kernel.transform_vectorize("root")
        kernel.measure_vector_gaussian(vec, Prefix(12), 0.5)
        record = kernel.history()[-1]
        assert record.operator == "VectorGaussian"
        assert record.noise_scale == pytest.approx(
            math.sqrt(12) * math.sqrt(2 * math.log(1.25 / 1e-5)) / 0.5
        )

    def test_seed_reproducibility(self, relation):
        a = ProtectedKernel(relation, 1.0, seed=7)
        b = ProtectedKernel(relation, 1.0, seed=7)
        va, vb = a.transform_vectorize("root"), b.transform_vectorize("root")
        ya = a.measure_vector_laplace(va, Identity(12), 0.5)
        yb = b.measure_vector_laplace(vb, Identity(12), 0.5)
        assert np.array_equal(ya, yb)


class TestSensitivityOncePerStrategy:
    """A cached public strategy is measured on every request; the kernel
    computes its sensitivity from the matrix on the first measurement only."""

    N = 64

    def measured_twice(self, monkeypatch, norm, accountant=None):
        from repro.operators.selection import hb_select
        from repro.plans.base import public_strategy
        from repro.service import ArtifactCache

        cache = ArtifactCache()

        def strategy():
            return public_strategy(cache, ("HB", self.N), lambda: hb_select(self.N), "implicit")

        cached = strategy()
        compute = getattr(type(cached), norm)
        calls = []

        def counting(matrix):
            calls.append(matrix)
            return compute(matrix)

        monkeypatch.setattr(type(cached), norm, counting)
        schema = Schema.build([Attribute("v", self.N)])
        table = Relation.from_histogram(schema, np.arange(self.N, dtype=float))
        kernel = ProtectedKernel(table, 10.0, seed=0, accountant=accountant)
        vector = kernel.transform_vectorize("root")
        for _ in range(2):
            queries = strategy()
            assert queries is cached
            if norm == "sensitivity":
                kernel.measure_vector_laplace(vector, queries, 1.0)
            else:
                kernel.measure_vector_gaussian(vector, queries, 1.0)
        assert calls == [cached]
        first, second = kernel.history()
        assert first.noise_scale == second.noise_scale
        return first.noise_scale, compute(cached)

    def test_laplace(self, monkeypatch):
        scale, sensitivity = self.measured_twice(monkeypatch, "sensitivity")
        assert scale == sensitivity  # ε = 1

    def test_gaussian(self, monkeypatch):
        accountant = ApproxDPAccountant(10.0, 1e-3)
        scale, sensitivity = self.measured_twice(monkeypatch, "sensitivity_l2", accountant)
        sigma, _ = accountant.gaussian_mechanism(sensitivity, 1.0, accountant.default_delta)
        assert scale == sigma


class TestProtectedDataSource:
    def test_pipeline(self, relation):
        source = protect(relation, 1.0, seed=0)
        vector = source.where({"a": (0, 1)}).select(["b"]).vectorize()
        assert vector.domain_size == 3
        answers = vector.vector_laplace(Identity(3), 0.5)
        assert answers.shape == (3,)
        assert source.budget_consumed() == pytest.approx(0.5)

    def test_split_by_partition_parallel_composition(self, relation):
        source = protect(relation, 1.0, seed=0)
        vector = source.vectorize()
        partition = ReductionMatrix(np.arange(12) % 3)
        pieces = vector.split_by_partition(partition)
        assert len(pieces) == 3
        for piece in pieces:
            piece.vector_laplace(Identity(piece.domain_size), 0.7)
        # Parallel composition: the root pays only the maximum.
        assert source.budget_consumed() == pytest.approx(0.7)

    def test_reduce_by_partition(self, relation):
        source = protect(relation, 10.0, seed=0)
        vector = source.vectorize()
        partition = ReductionMatrix(np.arange(12) % 4)
        reduced = vector.reduce_by_partition(partition)
        assert reduced.domain_size == 4
        noisy = reduced.vector_laplace(Identity(4), 5.0)
        assert np.isclose(noisy.sum(), len(relation), atol=10)

    def test_group_by_handles(self, relation):
        source = protect(relation, 1.0, seed=0)
        groups = source.group_by("b")
        assert set(groups) <= {0, 1, 2}

    def test_split_by_attribute(self, relation):
        source = protect(relation, 1.0, seed=0)
        pieces = source.split_by_attribute("b")
        # Each piece can be measured with the full budget (parallel composition).
        for piece in pieces.values():
            piece.vectorize().vector_laplace(Identity(12), 0.9)
        assert source.budget_consumed() == pytest.approx(0.9)

    def test_exponential_mechanism_prefers_high_scores(self, relation):
        source = protect(relation, 100.0, seed=0).vectorize()

        def scores(x):
            return np.array([0.0, 0.0, 100.0])

        choices = [
            source.exponential_mechanism(scores, 3, epsilon=5.0, score_sensitivity=1.0)
            for _ in range(10)
        ]
        assert all(c == 2 for c in choices)


#: The four Private→Public operators, each spending ε = 0.5 on a fresh kernel.
MEASUREMENTS = {
    "laplace": lambda kernel, vec: kernel.measure_vector_laplace(vec, Identity(12), 0.5),
    "gaussian": lambda kernel, vec: kernel.measure_vector_gaussian(vec, Identity(12), 0.5),
    "noisy_count": lambda kernel, vec: kernel.measure_noisy_count("root", 0.5),
    "exponential": lambda kernel, vec: kernel.select_exponential_mechanism(
        vec, lambda x: x, 12, 0.5, 1.0
    ),
}


class TestMeasurementOrder:
    """Every measurement charges before it draws noise or records history."""

    @staticmethod
    def _kernel(relation):
        kernel = ProtectedKernel(relation, seed=0, accountant=ApproxDPAccountant(10.0))
        return kernel, kernel.transform_vectorize("root")

    @pytest.mark.parametrize("operator", sorted(MEASUREMENTS))
    def test_crash_after_charge_ledgers_but_draws_and_records_nothing(
        self, relation, operator
    ):
        kernel, vec = self._kernel(relation)
        kernel.fault_injector = FaultInjector()
        kernel.fault_injector.arm("kernel.after_charge")
        rng_state = kernel._rng.bit_generator.state
        with pytest.raises(InjectedFault):
            MEASUREMENTS[operator](kernel, vec)
        assert kernel.budget_snapshot().num_charges == 1
        assert kernel.budget_consumed() > 0.0
        assert kernel.history() == []
        assert kernel._rng.bit_generator.state == rng_state
