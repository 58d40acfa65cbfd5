"""Tests of the multi-tenant query-service layer (`repro.service`)."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.matrix import HaarWavelet, Identity, Prefix
from repro.matrix.dense import DenseMatrix
from repro.operators import inference
from repro.plans import IdentityPlan, make_plan, with_representation
from repro.private import BudgetExceededError, ProtectedDataSource, protect
from repro.service import (
    ArtifactCache,
    PlanScheduler,
    QueryRequest,
    SessionManager,
    derive_request_seed,
    reconcile,
    session_report,
)
from repro.dataset import Attribute, Relation, Schema
from repro.telemetry import Tracer
from repro.workload import build_workload, workload_cache_key

N = 64


@pytest.fixture
def relation(small_vector):
    schema = Schema.build([Attribute("v", len(small_vector))])
    return Relation.from_histogram(schema, small_vector)


@pytest.fixture
def manager():
    return SessionManager()


@pytest.fixture
def scheduler(manager):
    return PlanScheduler(manager, max_workers=4)


def open_session(manager, relation, tenant="acme", epsilon_total=4.0, seed=0):
    return manager.create_session(tenant, relation, epsilon_total, seed=seed)


def identity_request(session, epsilon=0.1, **overrides):
    request = QueryRequest(
        session.session_id,
        plan="Identity",
        epsilon=epsilon,
        workload="prefix",
        workload_params={"n": N},
    )
    return replace(request, **overrides) if overrides else request


def mwem_request(session, workload, epsilon=0.2, **overrides):
    """MWEM with a matrix workload as a plan parameter."""
    request = QueryRequest(
        session.session_id,
        plan="MWEM",
        epsilon=epsilon,
        plan_params={"workload": workload, "rounds": 1},
    )
    return replace(request, **overrides) if overrides else request


# ----------------------------------------------------------------------------
# Session manager.
# ----------------------------------------------------------------------------
class TestSessionManager:
    def test_create_get_close(self, manager, relation):
        session = open_session(manager, relation)
        assert manager.get(session.session_id) is session
        assert session.session_id in manager
        assert len(manager) == 1
        closed = manager.close(session.session_id)
        assert closed is session and closed.closed
        assert session.session_id not in manager
        with pytest.raises(KeyError):
            manager.get(session.session_id)

    def test_duplicate_session_id_rejected(self, manager, relation):
        manager.create_session("acme", relation, 1.0, session_id="fixed")
        with pytest.raises(ValueError):
            manager.create_session("acme", relation, 1.0, session_id="fixed")

    def test_sessions_have_independent_kernels(self, manager, relation):
        first = open_session(manager, relation, tenant="a", epsilon_total=1.0)
        second = open_session(manager, relation, tenant="b", epsilon_total=2.0)
        assert first.kernel is not second.kernel
        assert first.epsilon_total == 1.0 and second.epsilon_total == 2.0


# ----------------------------------------------------------------------------
# Scheduler basics.
# ----------------------------------------------------------------------------
class TestScheduler:
    def test_execute_spends_exactly_epsilon(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        response = scheduler.execute(identity_request(session, epsilon=0.25))
        assert response.epsilon_spent == pytest.approx(0.25)
        assert session.budget_consumed() == pytest.approx(0.25)
        assert response.x_hat.shape == (N,)
        assert response.answers.shape == (N,)
        assert not response.cached

    def test_workload_answers_are_postprocessing(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        response = scheduler.execute(identity_request(session))
        workload = build_workload("prefix", {"n": N})
        assert np.allclose(response.answers, workload.matvec(response.x_hat))

    def test_request_without_workload_returns_x_hat_payload(
        self, manager, scheduler, relation
    ):
        session = open_session(manager, relation)
        response = scheduler.execute(
            QueryRequest(session.session_id, plan="Identity", epsilon=0.1)
        )
        assert response.answers is None
        assert response.payload is response.x_hat

    def test_unknown_plan_and_session_raise(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        with pytest.raises(KeyError):
            scheduler.execute(
                QueryRequest(session.session_id, plan="NoSuchPlan", epsilon=0.1)
            )
        with pytest.raises(KeyError):
            scheduler.execute(QueryRequest("ghost", plan="Identity", epsilon=0.1))

    def test_budget_exhaustion_propagates(self, manager, scheduler, relation):
        session = open_session(manager, relation, epsilon_total=0.1)
        with pytest.raises(BudgetExceededError):
            scheduler.execute(identity_request(session, epsilon=0.5))
        # The failed request never spent anything.
        assert session.budget_consumed() == 0.0

    def test_partial_spend_failure_is_ledgered(self, manager, scheduler, relation):
        """A plan failing after its first measurement still claims that spend."""
        session = open_session(manager, relation, epsilon_total=0.2)
        # UniformGrid measures the total with 0.1*eps first, then the grid
        # with the rest: eps=0.5 charges 0.05, then exceeds the budget.
        with pytest.raises(BudgetExceededError):
            scheduler.execute(
                QueryRequest(
                    session.session_id,
                    plan="UniformGrid",
                    epsilon=0.5,
                    plan_params={"shape": (8, 8)},
                )
            )
        assert session.budget_consumed() == pytest.approx(0.05)
        event = session.events[-1]
        assert event.error == "BudgetExceededError"
        assert event.epsilon_spent == pytest.approx(0.05)
        assert reconcile(session)["exact"]

    def test_batch_return_exceptions_keeps_other_responses(self, manager, relation):
        scheduler = PlanScheduler(manager, max_workers=1)
        session = open_session(manager, relation, epsilon_total=0.35)
        requests = [
            identity_request(session, epsilon=0.1, reuse=False),
            identity_request(session, epsilon=0.3, reuse=False),  # exceeds budget
            identity_request(session, epsilon=0.2, reuse=False),
        ]
        results = scheduler.execute_batch(requests, return_exceptions=True)
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], BudgetExceededError)
        assert not isinstance(results[2], Exception)
        assert session.budget_consumed() == pytest.approx(0.3)
        assert reconcile(session)["exact"]
        # Without return_exceptions the first failure re-raises, after the
        # whole batch (and its ledger) has completed.
        with pytest.raises(BudgetExceededError):
            scheduler.execute_batch(
                [identity_request(session, epsilon=0.3, reuse=False)]
            )

    def test_mismatched_workload_rejected_before_spending(
        self, manager, scheduler, relation
    ):
        session = open_session(manager, relation)
        with pytest.raises(ValueError, match="columns"):
            scheduler.execute(
                identity_request(session, workload_params={"n": N // 2})
            )
        assert session.budget_consumed() == 0.0
        # The rejection itself is ledgered: an errored zero-spend event with
        # an empty history span, so the audit trail has no gaps.
        assert len(session.events) == 1
        event = session.events[0]
        assert event.error == "ValueError"
        assert event.epsilon_spent == 0.0
        assert not event.cached
        assert event.history_start == event.history_end
        assert reconcile(session)["exact"]

    def test_out_of_range_budget_share_rejected_before_spending(
        self, manager, scheduler, relation
    ):
        session = open_session(manager, relation, epsilon_total=10.0)
        with pytest.raises(ValueError, match="share"):
            scheduler.execute(
                QueryRequest(
                    session.session_id,
                    plan="AHP",
                    epsilon=0.5,
                    plan_params={"partition_share": 1.5},
                )
            )
        assert session.budget_consumed() == 0.0
        event = session.events[-1]
        assert event.error == "ValueError"
        assert event.epsilon_spent == 0.0
        assert reconcile(session)["exact"]

    def test_batch_preserves_input_order(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        requests = [
            identity_request(session, epsilon=eps, reuse=False)
            for eps in (0.1, 0.2, 0.3)
        ]
        responses = scheduler.execute_batch(requests)
        assert [r.epsilon_requested for r in responses] == [0.1, 0.2, 0.3]
        assert scheduler.execute_batch([]) == []


# ----------------------------------------------------------------------------
# Deterministic seeding.
# ----------------------------------------------------------------------------
class TestDeterminism:
    def test_same_request_id_reproduces_answers(self, relation):
        outputs = []
        for _ in range(2):
            manager = SessionManager()
            scheduler = PlanScheduler(manager)
            session = manager.create_session("t", relation, 4.0, seed=5)
            response = scheduler.execute(
                identity_request(session, request_id="req-1", reuse=False)
            )
            outputs.append(response)
        assert np.array_equal(outputs[0].x_hat, outputs[1].x_hat)
        assert outputs[0].seed == outputs[1].seed

    def test_distinct_requests_get_distinct_seeds(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        first = scheduler.execute(identity_request(session, reuse=False))
        second = scheduler.execute(identity_request(session, reuse=False))
        assert first.seed != second.seed
        assert not np.array_equal(first.x_hat, second.x_hat)

    def test_derive_request_seed_is_stable(self):
        assert derive_request_seed(0, "s", "r") == derive_request_seed(0, "s", "r")
        assert derive_request_seed(0, "s", "r1") != derive_request_seed(0, "s", "r2")
        assert derive_request_seed(1, "s", "r") != derive_request_seed(2, "s", "r")
        assert derive_request_seed(0, "s", "r", "q1") != derive_request_seed(0, "s", "r", "q2")

    def test_same_request_id_different_query_gets_different_noise(
        self, manager, scheduler, relation
    ):
        """Reusing a request id for a different query must not replay noise."""
        session = open_session(manager, relation)
        first = scheduler.execute(
            identity_request(session, epsilon=0.1, request_id="trace-1", reuse=False)
        )
        second = scheduler.execute(
            identity_request(session, epsilon=0.2, request_id="trace-1", reuse=False)
        )
        assert first.seed != second.seed

    def test_distinct_matrix_workloads_under_one_request_id_get_distinct_seeds(
        self, manager, scheduler, relation
    ):
        """A matrix plan parameter keys by content, not by its repr."""
        rows = np.random.default_rng(3).integers(0, 2, size=(2, 4, N)).astype(float)
        session = open_session(manager, relation)
        seeds = [
            scheduler.execute(
                mwem_request(session, DenseMatrix(block), request_id="trace-1")
            ).seed
            for block in rows
        ]
        assert seeds[0] != seeds[1]
        assert len(session.releases) == 2

    def test_unseeded_sessions_are_not_reproducible(self, relation):
        """seed=None draws from OS entropy: responses can't be reconstructed."""
        outputs = []
        for _ in range(2):
            manager = SessionManager()
            scheduler = PlanScheduler(manager)
            session = manager.create_session("t", relation, 4.0, seed=None)
            outputs.append(
                scheduler.execute(
                    identity_request(session, request_id="pinned", reuse=False)
                )
            )
        assert outputs[0].seed != outputs[1].seed
        assert not np.array_equal(outputs[0].x_hat, outputs[1].x_hat)

    def test_batch_is_order_deterministic(self, relation):
        def run(workers):
            manager = SessionManager()
            scheduler = PlanScheduler(manager, max_workers=workers)
            session = manager.create_session("t", relation, 4.0, seed=9)
            requests = [identity_request(session, reuse=False) for _ in range(4)]
            return scheduler.execute_batch(requests)

        serial = run(1)
        threaded = run(4)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a.x_hat, b.x_hat)

    def test_plan_result_info_carries_seed(self, vector_source_factory, small_vector):
        source = vector_source_factory(small_vector, epsilon=1.0, seed=123)
        result = IdentityPlan().run(source, 0.5)
        assert result.info["seed"] == 123


# ----------------------------------------------------------------------------
# Released answers: each session replays its own.
# ----------------------------------------------------------------------------
class TestMeasurementCache:
    def test_repeat_request_is_budget_free(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        first = scheduler.execute(identity_request(session))
        consumed = session.budget_consumed()
        second = scheduler.execute(identity_request(session))
        assert second.cached and second.epsilon_spent == 0.0
        assert session.budget_consumed() == consumed
        assert np.array_equal(first.answers, second.answers)
        assert second.request_id != first.request_id

    def test_different_epsilon_misses_cache(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        scheduler.execute(identity_request(session, epsilon=0.1))
        other = scheduler.execute(identity_request(session, epsilon=0.2))
        assert not other.cached

    def test_reuse_false_bypasses_cache(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        scheduler.execute(identity_request(session))
        fresh = scheduler.execute(identity_request(session, reuse=False))
        assert not fresh.cached
        assert session.budget_consumed() == pytest.approx(0.2)

    def test_cache_is_scoped_per_session(self, manager, scheduler, relation):
        first = open_session(manager, relation, tenant="a")
        second = open_session(manager, relation, tenant="b")
        scheduler.execute(identity_request(first))
        cross = scheduler.execute(identity_request(second))
        assert not cross.cached
        assert second.budget_consumed() == pytest.approx(0.1)

    def test_backing_records_reconcile_with_history(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        request = identity_request(session)
        scheduler.execute(request)
        release = session.releases[request.cache_key()]
        records = session.kernel.history()[release.history_start : release.history_end]
        assert len(records) == 1
        event = session.events[-1]
        assert records == session.kernel.history()[event.history_start : event.history_end]
        assert records[0].operator == "VectorLaplace"
        assert records[0].epsilon == pytest.approx(0.1)

    def test_session_id_reuse_after_close_does_not_leak_cache(
        self, manager, scheduler, relation, rng
    ):
        """A new tenant under a recycled session id must not see old releases."""
        first = manager.create_session("a", relation, 1.0, seed=0, session_id="fixed")
        scheduler.execute(identity_request(first))
        manager.close("fixed")
        schema = Schema.build([Attribute("v", N)])
        other_relation = Relation.from_histogram(
            schema, rng.integers(0, 40, size=N).astype(np.float64)
        )
        second = manager.create_session("b", other_relation, 1.0, seed=1, session_id="fixed")
        response = scheduler.execute(identity_request(second))
        assert not response.cached
        assert second.budget_consumed() == pytest.approx(0.1)

    def test_client_mutation_cannot_corrupt_cache(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        first = scheduler.execute(identity_request(session))
        original = first.x_hat.copy()
        first.x_hat[:] = -1.0
        first.answers[:] = -1.0
        first.info["note"] = "mutated"
        second = scheduler.execute(identity_request(session))
        assert second.cached
        assert np.array_equal(second.x_hat, original)
        assert "note" not in second.info

    def test_stats(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        scheduler.execute(identity_request(session))
        scheduler.execute(identity_request(session))
        assert len(session.releases) == 1
        assert [event.outcome for event in session.events] == ["ok", "cached"]

    def test_another_tenants_releases_never_displace_a_sessions_own(
        self, manager, scheduler, relation
    ):
        """Tenant B's traffic cannot make tenant A pay again for its own query."""
        a = open_session(manager, relation, tenant="a")
        b = open_session(manager, relation, tenant="b", epsilon_total=100.0)
        first = scheduler.execute(identity_request(a))
        for i in range(50):
            scheduler.execute(identity_request(b, epsilon=0.01 * (i + 1)))
        assert len(b.releases) == 50 and len(a.releases) == 1
        consumed = a.budget_consumed()
        again = scheduler.execute(identity_request(a))
        assert again.cached and again.epsilon_spent == 0.0
        assert a.budget_consumed() == consumed
        assert again.seed == first.seed
        assert again.payload.tobytes() == first.payload.tobytes()


# ----------------------------------------------------------------------------
# Artifact cache.
# ----------------------------------------------------------------------------
class TestArtifactCache:
    def test_workload_built_once(self):
        cache = ArtifactCache()
        first = cache.workload("prefix", {"n": 32})
        second = cache.workload("prefix", {"n": 32})
        assert first is second
        assert cache.stats == {"entries": 1, "hits": 1, "misses": 1, "evictions": 0}

    def test_key_normalisation_across_param_types(self):
        assert workload_cache_key("prefix", {"n": np.int64(32)}) == workload_cache_key(
            "prefix", {"n": 32}
        )
        assert workload_cache_key("prefix", {"n": 32}) != workload_cache_key(
            "prefix", {"n": 64}
        )
        with pytest.raises(KeyError):
            workload_cache_key("nope", {})
        with pytest.raises(TypeError, match="not hashable"):
            workload_cache_key("prefix", {"n": {1, 2}})

    def test_max_entries_evicts_oldest(self):
        cache = ArtifactCache(max_entries=2)
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.get_or_build("c", lambda: 3)
        assert "a" not in cache and "b" in cache and "c" in cache

    def test_scheduler_shares_workload_artifacts_across_sessions(
        self, manager, scheduler, relation
    ):
        first = open_session(manager, relation, tenant="a")
        second = open_session(manager, relation, tenant="b")
        scheduler.execute(identity_request(first))
        scheduler.execute(identity_request(second))
        assert scheduler.artifact_cache.stats["misses"] == 1
        assert scheduler.artifact_cache.stats["hits"] == 1

    def test_scheduler_shares_gram_artifacts_across_tenants(self, manager, relation):
        # The scheduler passes its ArtifactCache into plan inference, so the
        # normal-equations factorisation built for tenant a's H2 strategy is
        # reused verbatim by tenant b: zero Gram rebuilds on the second
        # request, proven by counting actual builder invocations.
        class CountingCache(ArtifactCache):
            def __init__(self):
                super().__init__()
                self.gram_builds = 0

            def get_or_build(self, key, builder):
                def counting():
                    if isinstance(key, tuple) and key and key[0] == "least_squares_gram":
                        self.gram_builds += 1
                    return builder()

                return super().get_or_build(key, counting)

        cache = CountingCache()
        scheduler = PlanScheduler(manager, artifact_cache=cache)
        first = open_session(manager, relation, tenant="a")
        second = open_session(manager, relation, tenant="b")
        request = lambda session: QueryRequest(
            session.session_id, plan="Hierarchical (H2)", epsilon=0.5
        )

        scheduler.execute(request(first))
        assert cache.gram_builds == 1  # the plan actually used the shared cache
        before = dict(cache.stats)

        scheduler.execute(request(second))
        assert cache.gram_builds == 1  # zero rebuilds for the second tenant
        assert cache.stats["misses"] == before["misses"]
        assert cache.stats["hits"] > before["hits"]
        gram_keys = [
            key
            for key in cache._entries
            if isinstance(key, tuple) and key and key[0] == "least_squares_gram"
        ]
        assert len(gram_keys) == 1

    def test_gram_sharing_does_not_change_answers(self, manager, relation):
        # Same session seed with and without a pre-warmed Gram artifact: the
        # shared factorisation is a pure performance artifact.
        responses = []
        for trial in range(2):
            local_manager = SessionManager()
            scheduler = PlanScheduler(local_manager)
            session = open_session(local_manager, relation, tenant="t", seed=123)
            if trial == 1:
                from repro.matrix import HierarchicalQueries
                from repro.operators.inference import least_squares

                strategy = HierarchicalQueries(N)
                least_squares(
                    strategy,
                    np.zeros(strategy.shape[0]),
                    method="normal",
                    gram_cache=scheduler.artifact_cache,
                )
            responses.append(
                scheduler.execute(
                    QueryRequest(session.session_id, plan="Hierarchical (H2)", epsilon=0.5)
                )
            )
            if trial == 1:
                # The plan's solve found the primed factorisation.
                gram_keys = [
                    key
                    for key in scheduler.artifact_cache._entries
                    if isinstance(key, tuple) and key and key[0] == "least_squares_gram"
                ]
                assert len(gram_keys) == 1
        np.testing.assert_allclose(responses[0].x_hat, responses[1].x_hat)


# ----------------------------------------------------------------------------
# Public strategies: built once per public key, shared through the cache.
# ----------------------------------------------------------------------------
class RecordingCache(ArtifactCache):
    """An artifact cache that records the key of every build."""

    def __init__(self):
        super().__init__()
        self.built = []

    def get_or_build(self, key, builder):
        def build():
            self.built.append(key)
            return builder()

        return super().get_or_build(key, build)

    def strategies(self) -> list:
        """The cached strategies, in the order they were built."""
        return [self._entries[key] for key in self.built if key[0] == "public_strategy"]


def vector_relation(n: int, seed: int = 0) -> Relation:
    values = np.random.default_rng(seed).integers(0, 20, size=n).astype(np.float64)
    return Relation.from_histogram(Schema.build([Attribute("v", n)]), values)


SHARED_PLANS = ("Privelet", "Hierarchical (H2)", "Hierarchical Opt (HB)")


def strategy_request(session_id, plan, epsilon, **overrides):
    return QueryRequest(
        session_id, plan=plan, epsilon=epsilon, workload="prefix",
        workload_params={"n": 256}, **overrides,
    )


class TestPublicStrategies:
    def test_tenants_share_one_strategy_per_plan_and_domain(self, monkeypatch):
        measured = []
        vector_laplace = ProtectedDataSource.vector_laplace

        def spy(source, queries, epsilon):
            measured.append(queries)
            return vector_laplace(source, queries, epsilon)

        monkeypatch.setattr(ProtectedDataSource, "vector_laplace", spy)
        cache = RecordingCache()
        manager = SessionManager()
        scheduler = PlanScheduler(manager, artifact_cache=cache, executor="inline")
        relation = vector_relation(256)
        tenants = [manager.create_session(t, relation, 10.0, seed=1) for t in ("a", "b")]
        strategies = {plan: [] for plan in SHARED_PLANS}
        for k in range(2):
            for session in tenants:
                for plan in SHARED_PLANS:
                    scheduler.execute(strategy_request(session.session_id, plan, 0.1 + 0.01 * k))
                    strategies[plan].append(measured[-1])
        # One build each of the workload, the three strategies and their
        # three factors; the other eleven requests build nothing.
        assert cache.stats["misses"] == len(cache.built) == 7
        assert [key[1:3] for key in cache.built if key[0] == "public_strategy"] == [
            ("Privelet", 256), ("H2", 256), ("HB", 256)
        ]
        for plan, objects in strategies.items():
            assert len(objects) == 4 and all(obj is objects[0] for obj in objects), plan
        assert len({id(objects[0]) for objects in strategies.values()}) == 3

    @pytest.mark.parametrize(
        "plan,first,second",
        [
            ("Greedy-H", {"workload_intervals": [(0, 15), (16, 63)]},
             {"workload_intervals": [(0, 0), (1, 1), (0, 63)]}),
            ("Quadtree", {"shape": (8, 8)}, {"shape": (4, 16)}),
            ("HDMM", {"workload": Prefix(64)}, {"workload": Identity(64)}),
            ("Hierarchical Opt (HB)", {"representation": "implicit"},
             {"representation": "sparse"}),
        ],
        ids=["greedy_h_intervals", "quadtree_shape", "hdmm_workload", "hb_representation"],
    )
    def test_public_inputs_never_share_an_entry(self, plan, first, second):
        cache = RecordingCache()
        source = protect(vector_relation(64), 10.0, seed=0).vectorize()
        for params in (first, second, first):
            make_plan(plan, params).run(source, 0.1, gram_cache=cache)
        one, two = cache.strategies()
        assert one is not two
        # Each entry holds what its own inputs select.
        for params, cached in ((first, one), (second, two)):
            fresh = make_plan(plan, params)._select(64)
            fresh = with_representation(fresh, params.get("representation", "implicit"))
            assert type(cached) is type(fresh)
            assert cached.strategy_key() == fresh.strategy_key()

    def test_striped_plans_never_share_across_stripe_axes(self):
        cache = RecordingCache()
        source = protect(vector_relation(64), 10.0, seed=0).vectorize()
        for plan in ("HB-Striped", "HB-Striped_kron"):
            for axis in (0, 1, 0):
                params = {"domain": (4, 16), "stripe_axis": axis}
                make_plan(plan, params).run(source, 0.1, gram_cache=cache)
        striped_0, striped_1, kron_0, kron_1 = cache.strategies()
        assert (striped_0.shape[1], striped_1.shape[1]) == (4, 16)
        assert kron_0.strategy_key() != kron_1.strategy_key()

    def test_cached_strategies_answer_like_fresh_ones(self):
        # A request on strategies and factors another tenant built first
        # answers byte for byte like the same request on fresh ones.
        relation = vector_relation(256)

        def answers(warm: bool) -> list[bytes]:
            manager = SessionManager()
            scheduler = PlanScheduler(manager, executor="inline")
            if warm:
                other = manager.create_session("other", relation, 10.0, seed=5)
                for plan in SHARED_PLANS:
                    scheduler.execute(strategy_request(other.session_id, plan, 0.2))
            manager.create_session("t", relation, 10.0, seed=7, session_id="t")
            return [
                scheduler.execute(strategy_request("t", plan, 0.1, request_id=plan)).payload.tobytes()
                for plan in SHARED_PLANS
            ]

        assert answers(warm=True) == answers(warm=False)

    def test_untraced_privelet_runs_the_strategy_once(self, monkeypatch):
        # The estimate comes from the answers and the residual is never
        # read: the measurement is the strategy's only product.
        calls = []
        for name in ("_matmat", "_rmatmat"):
            kernel = getattr(HaarWavelet, name)

            def counting(matrix, block, kernel=kernel, name=name):
                calls.append(name)
                return kernel(matrix, block)

            monkeypatch.setattr(HaarWavelet, name, counting)
        manager = SessionManager()
        scheduler = PlanScheduler(manager, executor="inline")
        session = manager.create_session("t", vector_relation(256), 10.0, seed=3)
        for epsilon in (0.1, 0.2):  # the first builds the strategy, the second reuses it
            calls.clear()
            scheduler.execute(strategy_request(session.session_id, "Privelet", epsilon))
            assert calls == ["_matmat"]

    @pytest.mark.parametrize("plan", ["Privelet", "Hierarchical Opt (HB)"])
    def test_traced_request_records_the_residual(self, monkeypatch, plan):
        solves = []
        solve = inference.least_squares

        def spy(queries, answers, **kwargs):
            estimate = solve(queries, answers, **kwargs)
            solves.append((queries, answers, estimate.x_hat))
            return estimate

        monkeypatch.setattr(inference, "least_squares", spy)
        tracer = Tracer()
        manager = SessionManager()
        scheduler = PlanScheduler(manager, executor="inline", tracer=tracer)
        session = manager.create_session("t", vector_relation(256), 10.0, seed=3)
        scheduler.execute(strategy_request(session.session_id, plan, 0.1))
        ((queries, answers, x_hat),) = solves
        residual = float(np.linalg.norm(queries.matvec(x_hat) - answers))
        spans = tracer.drain()
        for name in ("plan.stage.infer", "solve.least_squares"):
            (span,) = [s for s in spans if s.name == name]
            assert span.attributes["residual_norm"] == pytest.approx(residual, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------------
# Registry / plan parameterisation.
# ----------------------------------------------------------------------------
class TestRegistryLookup:
    def test_make_plan_with_params(self):
        plan = make_plan("Identity", {"representation": "dense"})
        assert plan.representation == "dense"
        with pytest.raises(KeyError):
            make_plan("NoSuchPlan")


# ----------------------------------------------------------------------------
# Concurrency safety.
# ----------------------------------------------------------------------------
class TestConcurrency:
    def test_parallel_sessions_never_cross_budgets(self, manager, relation):
        """Two tenants hammered in one batch each land exactly on their own ledger."""
        scheduler = PlanScheduler(manager, max_workers=8)
        first = open_session(manager, relation, tenant="a", epsilon_total=2.0)
        second = open_session(manager, relation, tenant="b", epsilon_total=1.0)
        requests = []
        for i in range(10):
            requests.append(identity_request(first, epsilon=0.1, reuse=False))
            requests.append(identity_request(second, epsilon=0.05, reuse=False))
        responses = scheduler.execute_batch(requests)
        assert len(responses) == 20
        assert math.isclose(first.budget_consumed(), 1.0, rel_tol=0, abs_tol=1e-9)
        assert math.isclose(second.budget_consumed(), 0.5, rel_tol=0, abs_tol=1e-9)
        assert first.budget_remaining() >= 0 and second.budget_remaining() >= 0
        # Every response is attributed to the session that paid for it.
        for response in responses:
            assert response.session_id in (first.session_id, second.session_id)
        assert reconcile(first)["exact"] and reconcile(second)["exact"]

    def test_single_session_ledger_exact_under_batching(self, manager, relation):
        scheduler = PlanScheduler(manager, max_workers=8)
        session = open_session(manager, relation, epsilon_total=4.0)
        requests = [
            identity_request(session, epsilon=0.05, reuse=False) for _ in range(20)
        ]
        responses = scheduler.execute_batch(requests)
        # The ledger deltas reported to clients sum exactly to the kernel total.
        assert math.fsum(r.epsilon_spent for r in responses) == pytest.approx(
            session.budget_consumed(), abs=1e-12
        )
        assert session.budget_consumed() == pytest.approx(1.0, abs=1e-9)
        assert len(session.events) == 20
        assert reconcile(session)["exact"]

    def test_concurrent_cached_and_fresh_requests(self, manager, relation):
        scheduler = PlanScheduler(manager, max_workers=6)
        session = open_session(manager, relation)
        scheduler.execute(identity_request(session))
        consumed = session.budget_consumed()
        repeats = [identity_request(session) for _ in range(12)]
        responses = scheduler.execute_batch(repeats)
        assert all(r.cached and r.epsilon_spent == 0.0 for r in responses)
        assert session.budget_consumed() == consumed


# ----------------------------------------------------------------------------
# Audit export.
# ----------------------------------------------------------------------------
class TestExport:
    def test_session_report_structure(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        scheduler.execute(identity_request(session))
        scheduler.execute(identity_request(session))  # cached
        report = session_report(session)
        assert report["num_requests"] == 2 and report["num_cached"] == 1
        assert report["budget_consumed"] == pytest.approx(0.1)
        assert report["kernel_audit"]["num_measurements"] == 1
        assert len(report["events"]) == 2
        assert report["events"][1]["cached"] is True

    def test_reconcile_exact_after_mixed_traffic(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        scheduler.execute(identity_request(session, epsilon=0.1))
        scheduler.execute(identity_request(session, epsilon=0.1))  # cached
        scheduler.execute(identity_request(session, epsilon=0.3, reuse=False))
        check = reconcile(session)
        assert check["exact"]
        assert check["service_epsilon"] == pytest.approx(session.budget_consumed())
        assert check["history_claimed"] == check["history_records"] == 2

    def test_session_report_json_roundtrip(self, manager, scheduler, relation):
        first = open_session(manager, relation, tenant="a")
        second = open_session(manager, relation, tenant="b")
        scheduler.execute(identity_request(first))
        scheduler.execute(identity_request(second, epsilon=0.2))
        reports = [json.loads(json.dumps(session_report(s))) for s in (first, second)]
        assert [r["session_id"] for r in reports] == [first.session_id, second.session_id]
        assert [r["tenant"] for r in reports] == ["a", "b"]
        assert [r["budget_consumed"] for r in reports] == pytest.approx([0.1, 0.2])

    def test_events_point_at_history_records(self, manager, scheduler, relation):
        session = open_session(manager, relation)
        scheduler.execute(identity_request(session))
        event = session.events[0]
        records = session.kernel.history()[event.history_start : event.history_end]
        assert len(records) == 1 and records[0].operator == "VectorLaplace"


# ----------------------------------------------------------------------------
# Kernel hooks backing the service.
# ----------------------------------------------------------------------------
class TestKernelHooks:
    def test_budget_snapshot(self, vector_source_factory, small_vector):
        source = vector_source_factory(small_vector, epsilon=1.0)
        kernel = source.kernel
        before = kernel.budget_snapshot()
        source.vector_laplace(build_workload("identity", {"domain": N}), 0.25)
        after = kernel.budget_snapshot()
        assert before.consumed == 0.0 and before.num_measurements == 0
        assert after.consumed == pytest.approx(0.25)
        assert after.num_measurements == 1
        assert after.remaining == pytest.approx(0.75)

    def test_history_query_filters(self, vector_source_factory, small_vector):
        source = vector_source_factory(small_vector, epsilon=1.0)
        kernel = source.kernel
        source.vector_laplace(build_workload("identity", {"domain": N}), 0.1)
        kernel.measure_noisy_count("root", 0.1)
        assert len(kernel.history_query()) == 2
        assert len(kernel.history_query(operator="VectorLaplace")) == 1
        assert [r.operator for r in kernel.history_query(since=1)] == ["NoisyCount"]
        assert [r.operator for r in kernel.history_query(source="root")] == ["NoisyCount"]
        assert kernel.history_query(source="nope") == []

    def test_reseed_reproduces_noise(self, vector_source_factory, small_vector):
        source = vector_source_factory(small_vector, epsilon=2.0)
        workload = build_workload("identity", {"domain": N})
        source.kernel.reseed(77)
        first = source.vector_laplace(workload, 0.1)
        source.kernel.reseed(77)
        second = source.vector_laplace(workload, 0.1)
        assert np.array_equal(first, second)
        assert source.kernel.seed == 77
