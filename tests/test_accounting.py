"""Tests for the pluggable privacy-accounting subsystem (repro.accounting).

Covers, in order:

* seed-compatibility — a :class:`PureDPAccountant`-backed tracker reproduces
  the original hard-coded tracker's decisions and float trajectories exactly
  (a verbatim copy of the seed algorithm is kept here as the oracle),
* the hardened root ledger (drift and exact-exhaustion, both directions),
* accountant cost rules and conversions (zCDP ⇄ (ε, δ), Gaussian σ),
* Gaussian measurements end-to-end through the kernel (calibration, L2
  sensitivity closed forms, pure-DP rejection),
* zCDP-vs-pure budget crossover on many-round MWEM,
* the kernel's charge as the budget filter (what the odometer used to answer),
* the service layer: per-tenant accountants, converted (ε, δ) in audits and
  responses, ledger reconciliation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accounting import (
    ApproxDPAccountant,
    Cost,
    PureDPAccountant,
    ZCDPAccountant,
    make_accountant,
    zcdp_epsilon_for_rho_delta,
    zcdp_rho_for_epsilon_delta,
)
from repro.dataset import Attribute, Relation, Schema
from repro.matrix import (
    Identity,
    Kronecker,
    Ones,
    Prefix,
    RangeQueries,
    ReductionMatrix,
    Total,
    VStack,
)
from repro.matrix.combinators import Weighted
from repro.matrix.dense import DenseMatrix, SparseMatrix
from repro.private import (
    BudgetExceededError,
    ProtectedKernel,
    UnsupportedMechanismError,
    protect,
)
from repro.private.audit import audit
from repro.private.budget import BudgetTracker
from repro.plans import H2Plan, IdentityPlan, MwemPlan
from repro.service import PlanScheduler, QueryRequest, SessionManager
from repro.service.export import reconcile, session_report


def _relation(values: np.ndarray, name: str = "v") -> Relation:
    schema = Schema.build([Attribute(name, len(values))])
    return Relation.from_histogram(schema, values)


@pytest.fixture
def vector_relation():
    rng = np.random.default_rng(3)
    return _relation(rng.integers(0, 30, size=32).astype(np.float64))


# ---------------------------------------------------------------------------
# The seed tracker, kept verbatim as the compatibility oracle.
# ---------------------------------------------------------------------------


class _SeedTracker:
    """Verbatim re-implementation of the pre-accountant BudgetTracker."""

    def __init__(self, epsilon_total: float):
        self.epsilon_total = float(epsilon_total)
        self.nodes: dict[str, dict] = {
            "root": {"kind": "root", "parent": None, "stability": 1.0, "consumed": 0.0}
        }

    def add_derived(self, name, parent, stability):
        self.nodes[name] = {
            "kind": "derived",
            "parent": parent,
            "stability": float(stability),
            "consumed": 0.0,
        }

    def add_partition(self, name, parent):
        self.nodes[name] = {
            "kind": "partition",
            "parent": parent,
            "stability": 1.0,
            "consumed": 0.0,
        }

    def request(self, name, sigma):
        node = self.nodes[name]
        if node["kind"] == "root":
            if node["consumed"] + sigma > self.epsilon_total + 1e-12:
                return False
            node["consumed"] += sigma
            return True
        parent = self.nodes[node["parent"]]
        if parent["kind"] == "partition":
            increase = max(node["consumed"] + sigma - parent["consumed"], 0.0)
            if not self._forward(parent, increase):
                return False
            node["consumed"] += sigma
            return True
        if not self.request(node["parent"], node["stability"] * sigma):
            return False
        node["consumed"] += sigma
        return True

    def _forward(self, partition, increase):
        if increase <= 0:
            return True
        grandparent = self.nodes[partition["parent"]]
        if grandparent["kind"] == "partition":
            nested = max(partition["consumed"] + increase - grandparent["consumed"], 0.0)
            ok = self._forward(grandparent, nested)
        else:
            ok = self.request(partition["parent"], partition["stability"] * increase)
        if not ok:
            return False
        partition["consumed"] += increase
        return True


@st.composite
def lineage_scenarios(draw):
    """A random lineage tree (chains, partitions, nested partitions) plus a
    charge sequence, mirroring what kernels actually build."""
    epsilon_total = draw(st.sampled_from([0.5, 1.0, 2.5]))
    actions = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["derive", "partition", "charge"]),
                st.integers(min_value=0, max_value=30),
                st.sampled_from([1.0, 1.0, 2.0, 3.0]),
                st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return epsilon_total, actions


def _run_scenario(tracker_cls_new: bool, epsilon_total, actions):
    """Replay a scenario on the new (or oracle) tracker; return the decision
    log and the final per-node consumption map."""
    if tracker_cls_new:
        tracker = BudgetTracker(epsilon_total)
        nodes = lambda: {  # noqa: E731
            name: tracker.node(name).consumed for name in tracker._nodes
        }
        chargeable_kind = lambda name: tracker.node(name).kind.value  # noqa: E731
        charge = lambda name, sigma: tracker.charge(  # noqa: E731
            name, Cost(sigma)
        )
    else:
        tracker = _SeedTracker(epsilon_total)
        nodes = lambda: {n: v["consumed"] for n, v in tracker.nodes.items()}  # noqa: E731
        chargeable_kind = lambda name: tracker.nodes[name]["kind"]  # noqa: E731
        charge = tracker.request

    names = ["root"]
    decisions = []
    counter = 0
    for kind, index, stability, sigma in actions:
        parent = names[index % len(names)]
        if kind == "derive":
            counter += 1
            name = f"n{counter}"
            if chargeable_kind(parent) == "partition":
                stability = 1.0  # children of partitions are 1-stable splits
            tracker.add_derived(name, parent, stability)
            names.append(name)
        elif kind == "partition":
            if chargeable_kind(parent) == "partition":
                continue  # kernels never chain two dummies directly
            counter += 1
            name = f"p{counter}"
            tracker.add_partition(name, parent)
            names.append(name)
        else:
            if chargeable_kind(parent) == "partition":
                continue
            decisions.append((parent, sigma, charge(parent, sigma)))
    return decisions, nodes()


class TestPureSeedCompatibility:
    @given(lineage_scenarios())
    # A charge past an exactly exhausted budget: the seed refuses it, and so
    # must the ledger (its slack absorbs rounding, not real spend).
    @example(scenario=(0.5, [("charge", 0, 1.0, 0.5), ("charge", 0, 1.0, 1e-09)]))
    @settings(max_examples=250, deadline=None)
    def test_decisions_and_trajectories_match_seed(self, scenario):
        epsilon_total, actions = scenario
        new_decisions, new_nodes = _run_scenario(True, epsilon_total, actions)
        old_decisions, old_nodes = _run_scenario(False, epsilon_total, actions)
        assert new_decisions == old_decisions
        # Bit-identical float trajectories, not just approximate agreement.
        assert new_nodes == old_nodes

    def test_pure_accountant_is_the_default(self):
        tracker = BudgetTracker(1.0)
        assert tracker.accountant.name == "pure"
        assert tracker.epsilon_total == 1.0

    def test_explicit_pure_accountant_matches_default(self, vector_relation):
        by_epsilon = ProtectedKernel(vector_relation, 2.0, seed=9)
        by_accountant = ProtectedKernel(
            vector_relation, seed=9, accountant=PureDPAccountant(2.0)
        )
        for kernel in (by_epsilon, by_accountant):
            vec = kernel.transform_vectorize("root")
            kernel.measure_vector_laplace(vec, Identity(32), 0.5)
        assert by_epsilon.budget_consumed() == by_accountant.budget_consumed()
        assert by_epsilon.history() == by_accountant.history()


class TestHardenedLedger:
    def test_many_small_charges_cannot_drift_past_total(self):
        tracker = BudgetTracker(1.0)
        for _ in range(10):
            assert tracker.charge("root", Cost(0.1))
        # The naive accumulator sits at 0.9999999999999999; the ledger must
        # still refuse anything visibly above zero remaining.
        assert not tracker.charge("root", Cost(1e-6))
        assert math.fsum(c.primary for c in tracker.ledger()) <= 1.0 + 1e-9

    def test_exactly_exhausting_charge_is_accepted(self):
        # 1000 charges of 0.7 against a budget of exactly 700: the seed's
        # running accumulator drifts ~6.4e-12 above budget and spuriously
        # rejects the final charge; the fsum ledger accepts all 1000.
        tracker = BudgetTracker(700.0)
        seed = _SeedTracker(700.0)
        for i in range(1000):
            accepted = tracker.charge("root", Cost(0.7))
            assert accepted, f"ledger rejected charge {i}"
        seed_decisions = [seed.request("root", 0.7) for _ in range(1000)]
        assert not seed_decisions[-1]  # the regression this fixes
        assert all(seed_decisions[:-1])

    def test_over_budget_still_rejected_after_exhaustion(self):
        tracker = BudgetTracker(0.3)
        for _ in range(3):
            assert tracker.charge("root", Cost(0.1))
        assert not tracker.charge("root", Cost(0.05))

    def test_remaining_never_negative_after_exact_exhaustion(self):
        # The accepted 1000th charge leaves the naive accumulator a few ulps
        # above 700; remaining() must clamp rather than report < 0.
        tracker = BudgetTracker(700.0)
        for _ in range(1000):
            assert tracker.charge("root", Cost(0.7))
        assert tracker.remaining() == 0.0

    def test_tiny_zcdp_budget_refuses_overspend(self):
        # (ε=0.001, δ=1e-6) resolves to ρ ≈ 1.81e-8: a further ρ of 1e-9
        # past its exhaustion would overspend it by 5.5%.
        tracker = BudgetTracker(accountant=ZCDPAccountant(0.001, 1e-6))
        rho = tracker.accountant.budget.primary
        assert rho == pytest.approx(1.81e-8, rel=1e-2)
        assert tracker.charge("root", Cost(rho))
        assert not tracker.charge("root", Cost(1e-9))
        assert [c.primary for c in tracker.ledger()] == [rho]

    def test_budget_below_the_rounding_slack_refuses_overspend(self):
        tracker = BudgetTracker(1e-10)
        assert not tracker.charge("root", Cost(1e-9))
        assert tracker.charge("root", Cost(1e-10))
        assert not tracker.charge("root", Cost(1e-12))

    def test_ledger_records_every_accepted_charge(self):
        tracker = BudgetTracker(1.0)
        tracker.charge("root", Cost(0.25))
        tracker.charge("root", Cost(0.5))
        tracker.charge("root", Cost(0.5))  # rejected
        assert [c.primary for c in tracker.ledger()] == [0.25, 0.5]


class TestCostRules:
    def test_pure_costs_are_bare_epsilon(self):
        acc = PureDPAccountant(1.0)
        assert acc.laplace_cost(0.3) == Cost(0.3)
        assert acc.exponential_cost(0.3) == Cost(0.3)
        assert acc.scale(Cost(0.3), 2.0) == Cost(0.6)
        assert acc.epsilon_delta(Cost(0.7)) == (0.7, 0.0)

    def test_pure_rejects_gaussian(self):
        with pytest.raises(UnsupportedMechanismError):
            PureDPAccountant(1.0).gaussian_mechanism(1.0, 0.5, 1e-6)

    def test_approx_gaussian_analytic_sigma(self):
        acc = ApproxDPAccountant(1.0, 1e-6)
        sigma, cost = acc.gaussian_mechanism(2.0, 0.5, 1e-8)
        assert sigma == pytest.approx(2.0 * math.sqrt(2 * math.log(1.25e8)) / 0.5)
        assert cost == Cost(0.5, 1e-8)

    def test_approx_delta_budget_is_enforced(self):
        acc = ApproxDPAccountant(10.0, delta_total=1e-6, measurement_delta=4e-7)
        tracker = BudgetTracker(accountant=acc)
        _, cost = acc.gaussian_mechanism(1.0, 0.1, acc.default_delta)
        assert tracker.charge("root", cost)
        assert tracker.charge("root", cost)
        # Third measurement would push δ to 1.2e-6 > 1e-6: plenty of ε left,
        # but the δ ledger is exhausted.
        assert not tracker.charge("root", cost)

    def test_approx_group_privacy_scaling(self):
        acc = ApproxDPAccountant(10.0, 1e-6)
        scaled = acc.scale(Cost(0.5, 1e-8), 2.0)
        assert scaled.primary == pytest.approx(1.0)
        assert scaled.delta == pytest.approx(2.0 * math.exp(0.5) * 1e-8)
        # Contractive edges must not shrink δ.
        assert acc.scale(Cost(0.5, 1e-8), 0.5).delta == 1e-8

    def test_zcdp_conversion_roundtrip(self):
        rho = zcdp_rho_for_epsilon_delta(1.0, 1e-6)
        assert zcdp_epsilon_for_rho_delta(rho, 1e-6) == pytest.approx(1.0)

    def test_zcdp_costs(self):
        acc = ZCDPAccountant(epsilon=1.0, delta=1e-6)
        assert acc.laplace_cost(0.2).primary == pytest.approx(0.02)
        assert acc.exponential_cost(0.2).primary == pytest.approx(0.005)
        # Group privacy: ρ scales with the square of the stability.
        assert acc.scale(Cost(0.1), 3.0).primary == pytest.approx(0.9)

    def test_zcdp_gaussian_composition_beats_basic(self):
        # Per call the ρ-calibrated σ is within a few percent of the classic
        # analytic formula (the conversion is slightly lossy one-shot)...
        zc = ZCDPAccountant(epsilon=10.0, delta=1e-6)
        ap = ApproxDPAccountant(10.0, 1e-6)
        sigma_z, cost_z = zc.gaussian_mechanism(1.0, 0.5, 1e-6)
        sigma_a, _ = ap.gaussian_mechanism(1.0, 0.5, 1e-6)
        assert sigma_z == pytest.approx(sigma_a, rel=0.05)
        # ...but composition is where zCDP pays: 50 such measurements add up
        # to √50-ish in the converted ε, not the 50× of basic composition.
        total = Cost(0.0)
        for _ in range(50):
            total = total + cost_z
        eps_total, _ = zc.epsilon_delta(total)
        assert eps_total < 0.25 * (50 * 0.5)

    def test_make_accountant_registry(self):
        assert make_accountant(None, 1.0).name == "pure"
        assert make_accountant("pure", 1.0).name == "pure"
        assert make_accountant("approx", 1.0, delta=1e-5).delta_total == 1e-5
        zc = make_accountant("zcdp", 2.0, delta=1e-7)
        assert zc.rho_total == pytest.approx(zcdp_rho_for_epsilon_delta(2.0, 1e-7))
        # A session restores its accountant from the name and target alone,
        # so an instance, whose other settings would be lost, is refused.
        with pytest.raises(KeyError):
            make_accountant(PureDPAccountant(3.0), 1.0)
        with pytest.raises(KeyError):
            make_accountant("renyi", 1.0)


class TestSensitivityL2ClosedForms:
    @pytest.mark.parametrize(
        "matrix",
        [
            Identity(9),
            Ones(4, 9),
            Total(9),
            Prefix(9),
            ReductionMatrix(np.array([0, 0, 1, 1, 1, 2, 2, 2, 2])),
            VStack([Identity(9), Prefix(9), Total(9)]),
            Weighted(Prefix(9), -2.5),
            DenseMatrix(np.arange(18, dtype=float).reshape(2, 9) - 5.0),
            SparseMatrix(np.eye(9) * 3.0),
            Kronecker([Prefix(3), Identity(3)]),
            RangeQueries(9, [(0, 4), (2, 8), (0, 8)]),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_matches_dense_column_norm(self, matrix):
        dense = matrix.dense()
        expected = float(np.sqrt(np.max(np.sum(dense * dense, axis=0))))
        assert matrix.sensitivity_l2() == pytest.approx(expected)


class TestKernelGaussian:
    def test_calibration_empirical_std(self):
        # A large identity measurement under a fixed seed: the empirical
        # noise std must match the declared scale within a few percent.
        n = 20_000
        values = np.zeros(n)
        kernel = ProtectedKernel(
            _relation(values), seed=123, accountant=ZCDPAccountant(epsilon=50.0, delta=1e-6)
        )
        vec = kernel.transform_vectorize("root")
        answers = kernel.measure_vector_gaussian(vec, Identity(n), 1.0)
        record = kernel.history()[-1]
        assert record.operator == "VectorGaussian"
        assert record.noise_scale == pytest.approx(
            1.0 / math.sqrt(2.0 * zcdp_rho_for_epsilon_delta(1.0, 1e-6))
        )
        assert float(np.std(answers)) == pytest.approx(record.noise_scale, rel=0.05)

    def test_charged_cost_is_rho_not_epsilon(self, vector_relation):
        kernel = ProtectedKernel(
            vector_relation, seed=0, accountant=ZCDPAccountant(epsilon=1.0, delta=1e-6)
        )
        vec = kernel.transform_vectorize("root")
        kernel.measure_vector_gaussian(vec, Identity(32), 0.25)
        record = kernel.history()[-1]
        assert record.cost == pytest.approx(zcdp_rho_for_epsilon_delta(0.25, 1e-6))
        assert kernel.budget_consumed() == pytest.approx(record.cost)

    def test_gaussian_rejected_under_pure_accounting(self, vector_relation):
        source = protect(vector_relation, epsilon_total=1.0, seed=0).vectorize()
        with pytest.raises(UnsupportedMechanismError):
            source.vector_gaussian(Identity(32), 0.5)

    def test_budget_exhaustion_raises(self, vector_relation):
        kernel = ProtectedKernel(
            vector_relation, seed=0, accountant=ZCDPAccountant(rho=1e-4, delta=1e-6)
        )
        vec = kernel.transform_vectorize("root")
        with pytest.raises(BudgetExceededError):
            kernel.measure_vector_gaussian(vec, Identity(32), 5.0)

    def test_laplace_still_works_under_zcdp(self, vector_relation):
        kernel = ProtectedKernel(
            vector_relation, seed=0, accountant=ZCDPAccountant(epsilon=1.0, delta=1e-6)
        )
        vec = kernel.transform_vectorize("root")
        kernel.measure_vector_laplace(vec, Identity(32), 0.1)
        assert kernel.budget_consumed() == pytest.approx(0.1**2 / 2.0)

    def test_exponential_mechanism_records_true_scale(self, vector_relation):
        kernel = ProtectedKernel(vector_relation, 1.0, seed=1)
        vec = kernel.transform_vectorize("root")
        kernel.select_exponential_mechanism(
            vec, lambda x: np.arange(4, dtype=float), 4, epsilon=0.5, score_sensitivity=2.0
        )
        record = kernel.history()[-1]
        # 2·Δu/ε, not the bare score sensitivity the seed recorded.
        assert record.noise_scale == pytest.approx(2.0 * 2.0 / 0.5)
        assert record.epsilon == 0.5


class TestMwemCrossover:
    def test_zcdp_charges_less_than_pure_on_many_rounds(self, vector_relation):
        workload = RangeQueries(32, [(i, j) for i in range(0, 32, 4) for j in range(i + 3, 32, 7)])
        plan = MwemPlan(workload, rounds=50, total_records=300.0, history_passes=2)
        delta = 1e-6

        pure_source = protect(vector_relation, epsilon_total=4.0, seed=5).vectorize()
        plan.run(pure_source, 2.0)
        pure_epsilon = pure_source.budget_consumed()
        assert pure_epsilon == pytest.approx(2.0)

        zc = ZCDPAccountant(epsilon=2.0, delta=delta)
        zc_source = protect(vector_relation, seed=5, accountant=zc).vectorize()
        plan.run(zc_source, 2.0)
        report = zc_source.kernel.accounting_report()
        eps_reported, delta_reported = report["epsilon_spent"], report["delta_spent"]
        assert delta_reported == delta
        # Same nominal per-round parameters, same mechanisms — but additive
        # ρ composition converts back to a much smaller (ε, δ) than the
        # linear ε-sum of basic composition.
        assert eps_reported < 0.5 * pure_epsilon

    def test_zcdp_identical_noise_stream_for_same_mechanisms(self, vector_relation):
        # Accounting must not perturb the noise: the same seed and the same
        # mechanism sequence yield byte-identical answers under any
        # accountant that admits them.
        workload = RangeQueries(32, [(0, 7), (8, 15), (0, 31)])
        plan = MwemPlan(workload, rounds=3, total_records=300.0, history_passes=2)
        a = protect(vector_relation, epsilon_total=9.0, seed=11).vectorize()
        b = protect(
            vector_relation, seed=11, accountant=ZCDPAccountant(epsilon=9.0, delta=1e-6)
        ).vectorize()
        ra, rb = plan.run(a, 1.0), plan.run(b, 1.0)
        assert np.array_equal(ra.x_hat, rb.x_hat)


def _kernel_state(kernel):
    """Everything a measurement could change: every node's spend, the root
    ledger, the history and the noise generator's position."""
    tracker = kernel.budget_tracker
    return (
        {name: node.spent for name, node in tracker._nodes.items()},
        tracker.ledger(),
        kernel.num_measurements,
        kernel._rng.bit_generator.state,
    )


class TestBudgetFilter:
    """The kernel's own charge is the budget filter: each question the
    deleted odometer answered, asked of a real measurement."""

    def test_audit_reports_per_source_spend_and_the_converted_statement(
        self, vector_relation
    ):
        source = protect(vector_relation, epsilon_total=1.0, seed=0).vectorize()
        source.vector_laplace(Identity(32), 0.25)
        spent = {row.name: row.consumed for row in audit(source).sources}
        assert spent == {"root": pytest.approx(0.25), "vector_1": pytest.approx(0.25)}
        report = source.kernel.accounting_report()
        assert (report["epsilon_spent"], report["delta_spent"]) == (pytest.approx(0.25), 0.0)
        assert report["native_remaining"] == pytest.approx(0.75)
        # Past the remainder is refused; the remainder itself fits.
        with pytest.raises(BudgetExceededError):
            source.vector_laplace(Identity(32), 0.76)
        assert source.budget_consumed() == pytest.approx(0.25)
        source.vector_laplace(Identity(32), 0.75)
        assert source.budget_consumed() == pytest.approx(1.0)

    def test_sibling_under_the_partition_max_is_admitted_free(self, vector_relation):
        source = protect(vector_relation, epsilon_total=1.0, seed=0).vectorize()
        left, right = source.split_by_partition(ReductionMatrix(np.arange(32) % 2))
        left.vector_laplace(Identity(left.domain_size), 0.6)
        # The sibling rides under the partition's max: the root spend holds.
        right.vector_laplace(Identity(right.domain_size), 0.6)
        assert source.budget_consumed() == pytest.approx(0.6)
        # Raising the max past the budget is refused, and changes nothing.
        before = _kernel_state(source.kernel)
        with pytest.raises(BudgetExceededError):
            right.vector_laplace(Identity(right.domain_size), 0.5)
        assert _kernel_state(source.kernel) == before

    @pytest.mark.parametrize(
        "accountant, measure",
        [
            (PureDPAccountant(1.0), lambda s: s.vector_laplace(Identity(32), 1.5)),
            (
                PureDPAccountant(1.0),
                lambda s: s.exponential_mechanism(
                    lambda x: x[:4], 4, epsilon=1.5, score_sensitivity=1.0
                ),
            ),
            (
                ApproxDPAccountant(1.0, delta_total=1e-6),
                lambda s: s.vector_gaussian(Identity(32), 1.5),
            ),
            (
                ZCDPAccountant(rho=0.01, delta=1e-6),
                lambda s: s.vector_gaussian(Identity(32), 1.0),
            ),
        ],
        ids=["pure-laplace", "pure-exponential", "approx-gaussian", "zcdp-gaussian"],
    )
    def test_over_budget_measurement_charges_draws_and_records_nothing(
        self, vector_relation, accountant, measure
    ):
        source = protect(vector_relation, seed=0, accountant=accountant).vectorize()
        before = _kernel_state(source.kernel)
        with pytest.raises(BudgetExceededError):
            measure(source)
        assert _kernel_state(source.kernel) == before

    def test_a_gaussian_past_the_delta_budget_charges_draws_and_records_nothing(
        self, vector_relation
    ):
        # Two measurements at the accountant's δ of 5e-7 exhaust the 1e-6 δ
        # budget with most of ε left; the third is refused on δ alone.
        accountant = ApproxDPAccountant(10.0, delta_total=1e-6, measurement_delta=5e-7)
        source = protect(vector_relation, seed=0, accountant=accountant).vectorize()
        source.vector_gaussian(Identity(32), 0.5)
        source.vector_gaussian(Identity(32), 0.5)
        before = _kernel_state(source.kernel)
        with pytest.raises(BudgetExceededError):
            source.vector_gaussian(Identity(32), 0.5)
        assert _kernel_state(source.kernel) == before

    def test_sublinear_costs_admit_epsilon_above_the_native_budget(self, vector_relation):
        # A ρ budget of 1.5 admits a Laplace ε up to sqrt(2·1.5) ≈ 1.732.
        def laplace(epsilon):
            source = protect(
                vector_relation, seed=0, accountant=ZCDPAccountant(rho=1.5, delta=1e-6)
            ).vectorize()
            return source.vector_laplace(Identity(32), epsilon)

        laplace(1.73)
        with pytest.raises(BudgetExceededError):
            laplace(1.74)

    def test_zcdp_refuses_laplace_and_admits_gaussian_at_the_same_target(
        self, vector_relation
    ):
        source = protect(
            vector_relation, seed=0, accountant=ZCDPAccountant(epsilon=1.0, delta=1e-6)
        ).vectorize()
        # ε=1.0 of Laplace costs ρ=0.5, far beyond the ≈0.0175 ρ budget,
        # while the same budget admits a Gaussian at the full (ε=1, δ) target.
        with pytest.raises(BudgetExceededError):
            source.vector_laplace(Identity(32), 1.0)
        assert source.budget_consumed() == 0.0
        source.vector_gaussian(Identity(32), 1.0)
        assert source.budget_consumed() == pytest.approx(source.kernel.epsilon_total)


class TestServiceAccounting:
    @pytest.fixture
    def table(self):
        rng = np.random.default_rng(17)
        return _relation(rng.integers(0, 50, size=64).astype(np.float64))

    def test_pure_sessions_unchanged_by_default(self, table):
        manager = SessionManager()
        session = manager.create_session("acme", table, epsilon_total=1.0, seed=3)
        assert session.accountant.name == "pure"
        report = session.accounting_report()
        assert report["epsilon_budget"] == 1.0
        assert report["delta_budget"] == 0.0

    @pytest.mark.parametrize(
        "accountant",
        [
            # Would restore with a per-measurement δ of 1e-8, silently.
            ApproxDPAccountant(1.0, 1e-6, measurement_delta=1e-7),
            # Would fail restore against epsilon_total=1.0.
            PureDPAccountant(5.0),
        ],
        ids=["approx-measurement-delta", "pure-own-budget"],
    )
    def test_session_accountant_instance_is_refused_before_any_session(
        self, table, accountant
    ):
        manager = SessionManager()
        with pytest.raises(KeyError, match="a session takes one of"):
            manager.create_session(
                "acme", table, epsilon_total=1.0, seed=3, accountant=accountant
            )
        assert len(manager) == 0
        # A bare kernel never restores, so it keeps taking instances.
        assert protect(table, seed=3, accountant=accountant).kernel.accountant is accountant

    def test_gaussian_end_to_end_through_scheduler(self, table):
        manager = SessionManager()
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", table, epsilon_total=1.0, seed=3, accountant="zcdp", delta=1e-6
        )
        request = QueryRequest(
            session_id=session.session_id,
            plan="Hierarchical (H2)",
            epsilon=0.4,
            plan_params={"noise": "gaussian"},
            workload="prefix",
            workload_params={"n": 64},
        )
        response = scheduler.execute(request)
        assert response.accounting["accountant"] == "zcdp"
        assert response.accounting["epsilon_spent"] == pytest.approx(0.4, rel=1e-6)
        assert response.accounting["delta_spent"] == 1e-6
        # Native spend on the wire equals the kernel's ρ delta.
        assert response.epsilon_spent == pytest.approx(
            zcdp_rho_for_epsilon_delta(0.4, 1e-6)
        )
        record = session.kernel.history()[-1]
        assert record.operator == "VectorGaussian"
        # Audit export carries the converted statement and still reconciles.
        report = session_report(session)
        assert report["accounting"]["accountant"] == "zcdp"
        assert report["kernel_audit"]["epsilon_reported"] == pytest.approx(0.4, rel=1e-6)
        assert reconcile(session)["exact"]

    @pytest.mark.parametrize("accountant", ["approx", "zcdp"])
    def test_every_gaussian_measurement_runs_at_the_accountants_default_delta(
        self, table, accountant
    ):
        # The kernel, not plan code, sets δ: every Gaussian plan run through
        # the scheduler records the session accountant's default_delta, and a
        # plan parameter that tries to pick δ is refused before any charge.
        manager = SessionManager()
        scheduler = PlanScheduler(manager, executor="inline")
        session = manager.create_session(
            "acme", table, epsilon_total=8.0, seed=3, accountant=accountant, delta=1e-5
        )
        plans = [
            ("Identity", {}),
            ("Uniform", {}),
            ("Privelet", {}),
            ("Hierarchical (H2)", {}),
            ("Hierarchical Opt (HB)", {}),
            ("Greedy-H", {}),
            ("HDMM", {"workload": Prefix(64)}),
            ("MWEM", {"workload": Prefix(64), "rounds": 2}),
            ("MWEM variant d", {"workload": Prefix(64), "rounds": 2}),
        ]
        for plan, params in plans:
            scheduler.execute(
                QueryRequest(
                    session.session_id, plan, 0.25, plan_params={"noise": "gaussian", **params}
                )
            )
        deltas = [r.delta for r in session.kernel.history() if r.operator == "VectorGaussian"]
        assert len(deltas) >= len(plans)
        assert set(deltas) == {session.accountant.default_delta}
        before = (session.budget_consumed(), session.kernel.num_measurements)
        with pytest.raises(TypeError, match="delta"):
            scheduler.execute(
                QueryRequest(
                    session.session_id,
                    "Identity",
                    0.25,
                    plan_params={"noise": "gaussian", "delta": 1e-3},
                )
            )
        assert (session.budget_consumed(), session.kernel.num_measurements) == before
        assert reconcile(session)["exact"]

    def test_cache_replay_spends_nothing_and_reports_current_state(self, table):
        manager = SessionManager()
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", table, epsilon_total=2.0, seed=3, accountant="approx", delta=1e-6
        )
        request = QueryRequest(
            session_id=session.session_id,
            plan="Identity",
            epsilon=0.5,
            plan_params={"noise": "gaussian"},
        )
        first = scheduler.execute(request)
        replay = scheduler.execute(request)
        assert replay.cached and replay.epsilon_spent == 0.0
        assert np.array_equal(first.x_hat, replay.x_hat)
        assert replay.accounting == session.accounting_report()
        assert reconcile(session)["exact"]

    def test_per_tenant_accountants_are_isolated(self, table):
        manager = SessionManager()
        pure = manager.create_session("a", table, epsilon_total=1.0, seed=1)
        zcdp = manager.create_session(
            "b", table, epsilon_total=1.0, seed=1, accountant="zcdp"
        )
        scheduler = PlanScheduler(manager)
        for session in (pure, zcdp):
            scheduler.execute(
                QueryRequest(session_id=session.session_id, plan="Identity", epsilon=0.1)
            )
        assert pure.budget_consumed() == pytest.approx(0.1)
        # zCDP session charged ε²/2 in ρ for the same Laplace measurement.
        assert zcdp.budget_consumed() == pytest.approx(0.1**2 / 2.0)

    def test_plans_noise_knob_via_plan_params(self, table):
        # The knob flows through the registry untouched — a pure-tenant
        # request for gaussian noise is rejected by the kernel (ledgered as
        # an errored event), not silently downgraded.
        manager = SessionManager()
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", table, epsilon_total=1.0, seed=3)
        request = QueryRequest(
            session_id=session.session_id,
            plan="Identity",
            epsilon=0.5,
            plan_params={"noise": "gaussian"},
        )
        with pytest.raises(UnsupportedMechanismError):
            scheduler.execute(request)
        assert session.events[-1].error == "UnsupportedMechanismError"
        assert session.budget_consumed() == 0.0


class TestGaussianExpectedError:
    def test_formula_matches_manual_computation(self):
        from repro.analysis import expected_workload_error, measurement_noise_variance

        n = 16
        strategy = Prefix(n)
        workload = RangeQueries(n, [(0, 3), (4, 12), (0, 15)])
        gram_inv = np.linalg.inv(strategy.dense().T @ strategy.dense())
        w = workload.dense()
        trace = float(np.trace(w @ gram_inv @ w.T))
        for noise in ("laplace", "gaussian"):
            variance = measurement_noise_variance(strategy, 0.5, noise=noise, delta=1e-6)
            assert expected_workload_error(
                workload, strategy, 0.5, noise=noise, delta=1e-6
            ) == pytest.approx(variance * trace)

    def test_gaussian_wins_on_l2_friendly_strategies(self):
        # Prefix has ||A||₁ = n but ||A||₂ = √n: at matched (ε, δ) the
        # Gaussian expected error must be far below Laplace for large n.
        from repro.analysis import expected_workload_error

        n = 256
        strategy = Prefix(n)
        workload = RangeQueries(n, [(i, i + 15) for i in range(0, n - 16, 16)])
        laplace = expected_workload_error(workload, strategy, 1.0, noise="laplace")
        gaussian = expected_workload_error(workload, strategy, 1.0, noise="gaussian", delta=1e-6)
        # Variance ratio is 2n²/ε² versus 2·ln(1.25/δ)·n/ε²: linear in n (≈18×
        # at n=256), and growing without bound as the domain widens.
        assert gaussian < laplace / 10.0


class TestNonFiniteEpsilon:
    """A NaN or infinite ε is refused wherever it enters, under every
    accountant.  NaN passes any ``x <= 0`` check, and an infinite charge turns
    the compensated ledger sum into NaN (``inf - inf``), after which every
    later charge was accepted: one such request switched the budget off."""

    @pytest.mark.parametrize("where", ["request", "create_session", "charge"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("accountant", ["pure", "approx", "zcdp"])
    def test_refused_and_nothing_changes(self, accountant, bad, where):
        rng = np.random.default_rng(17)
        table = _relation(rng.integers(0, 50, size=16).astype(np.float64))
        manager = SessionManager()
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", table, epsilon_total=1.0, seed=3, accountant=accountant
        )
        scheduler.execute(QueryRequest(session.session_id, plan="Identity", epsilon=0.1))
        spent = session.budget_consumed()
        tracker = session.kernel.budget_tracker
        charges, records = tracker.num_charges, len(session.kernel.history())

        with pytest.raises(ValueError, match="finite"):
            if where == "request":
                scheduler.execute(QueryRequest(session.session_id, plan="Identity", epsilon=bad))
            elif where == "create_session":
                manager.create_session(
                    "acme", table, epsilon_total=bad, seed=3, accountant=accountant
                )
            else:
                tracker.charge("root", Cost(bad))

        assert len(manager) == 1
        assert session.budget_consumed() == spent
        assert tracker.num_charges == charges
        assert len(session.kernel.history()) == records
        assert reconcile(session)["exact"]
        with pytest.raises(BudgetExceededError):
            scheduler.execute(QueryRequest(session.session_id, plan="Identity", epsilon=1000.0))
        assert session.budget_consumed() == spent
