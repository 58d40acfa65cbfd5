"""Unit tests for the Private→Public selection operators (WorstApprox, PrivBayes)."""

import numpy as np
import pytest

from repro.matrix import LinearQueryMatrix, Prefix, RangeQueries
from repro.matrix.dense import DenseMatrix
from repro.operators.selection.privbayes import (
    mutual_information_score,
    privbayes_select,
    privbayes_synthetic_distribution,
)
from repro.operators.selection import worst_approx
from repro.operators.selection.worst_approx import augment_with_hierarchy, worst_approximated
from repro.service import PlanScheduler, QueryRequest, SessionManager
from tests.conftest import make_vector_relation

from repro.dataset import Attribute, Relation, Schema
from repro.private import protect


class TestWorstApproximated:
    def _source(self, x, epsilon=100.0, seed=0):
        relation = make_vector_relation(np.asarray(x, dtype=float))
        return protect(relation, epsilon, seed=seed).vectorize()

    def test_selects_badly_approximated_query(self):
        x = np.zeros(16)
        x[0:4] = 100.0
        workload = RangeQueries(16, [(0, 3), (8, 11)])
        estimate = np.zeros(16)  # query 0 is badly approximated, query 1 perfectly
        source = self._source(x, epsilon=100.0)
        index, row = worst_approximated(source, workload, estimate, epsilon=50.0)
        assert index == 0
        assert np.allclose(row, workload.row(0))

    def test_consumes_budget(self):
        x = np.ones(8)
        workload = RangeQueries(8, [(0, 3), (4, 7)])
        source = self._source(x, epsilon=1.0)
        worst_approximated(source, workload, np.zeros(8), epsilon=0.25)
        assert source.budget_consumed() == pytest.approx(0.25)

    def test_score_sensitivity_is_the_largest_coefficient(self, monkeypatch):
        _score_sensitivity = worst_approx._score_sensitivity
        assert _score_sensitivity(RangeQueries(16, [(0, 3), (8, 11)])) == 1.0
        assert _score_sensitivity(DenseMatrix(np.array([[0.5, -3.0], [2.0, 0.0]]))) == 3.0
        # An implicit workload is read a block of rows at a time, never whole,
        # and once per object.
        calls = []
        rows = LinearQueryMatrix.rows

        def counting(matrix, indices, *args):
            calls.append(len(indices))
            return rows(matrix, indices, *args)

        monkeypatch.setattr(LinearQueryMatrix, "rows", counting)
        monkeypatch.setattr(LinearQueryMatrix, "dense", None)
        monkeypatch.setattr(LinearQueryMatrix, "sparse", None)
        monkeypatch.setattr(worst_approx, "_ROW_BLOCK_CELLS", 4096)
        workload = 5.0 * Prefix(1024)
        assert _score_sensitivity(workload) == 5.0
        assert calls == [4] * 256
        assert _score_sensitivity(workload) == 5.0
        assert len(calls) == 256

    def test_scaled_workload_sets_the_temperature_through_the_scheduler(self):
        # MWEM on 5·Prefix(16) at ε=1, two rounds: a 0.05 noisy total, then
        # per round 0.2375 for the selection and 0.2375 for the measurement.
        relation = make_vector_relation(np.arange(16.0) * 3)
        manager = SessionManager()
        session = manager.create_session("acme", relation, 10.0, seed=1)
        response = PlanScheduler(manager).execute(
            QueryRequest(
                session.session_id,
                plan="MWEM",
                epsilon=1.0,
                plan_params={"workload": 5.0 * Prefix(16), "rounds": 2},
            )
        )
        assert response.epsilon_spent == pytest.approx(1.0)
        scales = {}
        for record in session.kernel.history()[1:]:
            scales.setdefault(record.operator, []).append(record.noise_scale)
        # Δu = max |w_ij| = 5: the temperature is 2·5/0.2375, not 2·1/0.2375.
        assert scales["ExponentialMechanism"] == [pytest.approx(2 * 5 / 0.2375)] * 2
        assert scales["VectorLaplace"] == [pytest.approx(5 / 0.2375)] * 2

    def test_augmentation_is_disjoint_from_selected(self):
        row = np.zeros(16)
        row[4:8] = 1.0
        augmented = augment_with_hierarchy(row, round_index=1, n=16)
        dense = augmented.dense()
        # First row is the selected query; other rows never overlap its support.
        assert np.allclose(dense[0], row)
        for other in dense[1:]:
            assert np.all(other[4:8] == 0)
        # Disjointness keeps the sensitivity at 1.
        assert augmented.sensitivity() == 1.0

    def test_augmentation_interval_length_grows_with_round(self):
        row = np.zeros(16)
        row[0] = 1.0
        early = augment_with_hierarchy(row, round_index=0, n=16)
        late = augment_with_hierarchy(row, round_index=3, n=16)
        assert early.shape[0] > late.shape[0]


class TestPrivBayes:
    def _census_like(self, seed=0):
        schema = Schema.build([Attribute("a", 3), Attribute("b", 3), Attribute("c", 2)])
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, 4000)
        b = (a + rng.integers(0, 2, 4000)) % 3  # b strongly depends on a
        c = rng.integers(0, 2, 4000)
        return Relation.from_columns(schema, {"a": a, "b": b, "c": c})

    def test_mutual_information_detects_dependence(self):
        relation = self._census_like()
        x = relation.vectorize()
        domain = relation.schema.domain
        mi_dependent = mutual_information_score(x, domain, 1, [0])  # b vs a
        mi_independent = mutual_information_score(x, domain, 2, [0])  # c vs a
        assert mi_dependent > mi_independent + 0.1

    def test_empty_parent_set_scores_zero(self):
        relation = self._census_like()
        x = relation.vectorize()
        assert mutual_information_score(x, relation.schema.domain, 1, []) == 0.0

    def test_select_returns_valid_network_and_measurements(self):
        relation = self._census_like()
        source = protect(relation, 10.0, seed=1).vectorize()
        measurements, network = privbayes_select(
            source, relation.schema.domain, epsilon=5.0, total_records=4000.0, seed=0
        )
        assert len(network) == 3
        attributes = [attr for attr, _ in network]
        assert sorted(attributes) == [0, 1, 2]
        # Parents always precede their child in the construction order.
        seen = set()
        for attribute, parents in network:
            assert set(parents) <= seen
            seen.add(attribute)
        assert measurements.shape[1] == relation.schema.domain_size
        assert source.budget_consumed() <= 5.0 + 1e-9

    def test_synthetic_distribution_is_probability_vector(self):
        relation = self._census_like()
        domain = relation.schema.domain
        x = relation.vectorize()
        network = [(0, ()), (1, (0,)), (2, (0,))]
        estimates = {}
        for attribute, parents in network:
            keep = (attribute, *parents)
            tensor = x.reshape(domain)
            drop = tuple(a for a in range(len(domain)) if a not in keep)
            table = tensor.sum(axis=drop)
            estimates[keep] = table.ravel()
        distribution = privbayes_synthetic_distribution(network, estimates, domain)
        assert np.isclose(distribution.sum(), 1.0)
        assert np.all(distribution >= 0)
        # With exact marginals the factorised joint should resemble the truth.
        truth = x / x.sum()
        assert np.abs(distribution - truth).sum() < 0.5
