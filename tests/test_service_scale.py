"""Execution-core tests: executor backends, the artifact cache, moving sessions.

The invariants of the execution core:

* **backend transparency** — answers (payloads, seeds, spends) are
  byte-identical across the inline and thread backends, because noise seeds
  derive only from (base seed, request id, query identity);
* **the artifact cache** — LRU with touch-on-hit and eviction counters when
  bounded, and shareable across schedulers; evicting an artifact costs a
  rebuild, never ε;
* **moving a session** — a drain-close, then a restore from the session's
  journal, carries it to another scheduler with its ledger, seed, request
  counter and released answers, which live on the session and so need no
  scheduler to move.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.dataset import Attribute, Relation, Schema
from repro.durability import FaultInjector, PrivacyJournal, WorkerDeath, restore_session
from repro.private import BudgetExceededError
from repro.service import (
    ArtifactCache,
    ExecutorBackend,
    InlineExecutor,
    PlanScheduler,
    QueryRequest,
    QueryResponse,
    SessionClosedError,
    SessionManager,
    ThreadExecutor,
    derive_request_seed,
    make_executor,
    reconcile,
    telemetry_report,
)
from repro.telemetry import Tracer

N = 64


@pytest.fixture
def relation():
    rng = np.random.default_rng(0)
    schema = Schema.build([Attribute("v", N)])
    return Relation.from_histogram(schema, rng.integers(0, 50, size=N).astype(float))


def _requests(session_id: str) -> list[QueryRequest]:
    return [
        QueryRequest(
            session_id,
            plan="Identity",
            epsilon=0.1,
            workload="prefix",
            workload_params={"n": N},
        ),
        QueryRequest(session_id, plan="Identity", epsilon=0.2, reuse=False),
        QueryRequest(
            session_id,
            plan="Identity",
            epsilon=0.05,
            workload="random_range",
            workload_params={"n": N, "num_queries": N, "seed": 0},
        ),
        # Least-squares plans: each solves against the scheduler's shared
        # normal-equations artifact (the tree kind for H2 and HB, orthogonal
        # rows for Privelet).
        QueryRequest(
            session_id,
            plan="Hierarchical Opt (HB)",
            epsilon=0.1,
            workload="prefix",
            workload_params={"n": N},
        ),
        QueryRequest(
            session_id,
            plan="Hierarchical (H2)",
            epsilon=0.1,
            workload="random_range",
            workload_params={"n": N, "num_queries": N, "seed": 0},
        ),
        QueryRequest(
            session_id,
            plan="Privelet",
            epsilon=0.1,
            workload="prefix",
            workload_params={"n": N},
        ),
    ]


def _run_backend(relation, executor):
    """Run every session's requests as one batch, then replay that batch.

    Three sessions, so the thread backend runs their requests (and their
    solves against one cached factor per strategy) concurrently.  Returns
    the first batch's responses, the replays' responses, the sessions and
    their spend between the two batches.
    """
    manager = SessionManager()
    scheduler = PlanScheduler(manager, executor=executor)
    sessions = [
        manager.create_session("acme", relation, 10.0, seed=7 + i, session_id=f"acme-s{i}")
        for i in range(3)
    ]
    batches = [_requests(session.session_id) for session in sessions]
    requests = [r for group in zip(*batches) for r in group]
    responses = scheduler.execute_batch(requests)
    spent = [session.budget_consumed() for session in sessions]
    replays = scheduler.execute_batch([replace(r, reuse=True) for r in requests])
    scheduler.shutdown()
    return responses, replays, sessions, spent


class TestExecutorBackends:
    def test_make_executor_resolution(self):
        assert isinstance(make_executor(None), ThreadExecutor)
        assert isinstance(make_executor("thread"), ThreadExecutor)
        assert isinstance(make_executor("inline"), InlineExecutor)
        inline = InlineExecutor()
        assert make_executor(inline) is inline
        for name in ("bogus", "process"):
            with pytest.raises(ValueError, match="unknown executor"):
                make_executor(name)

    def test_answers_byte_identical_across_backends(self, relation):
        base, base_replays, inline_sessions, inline_spent = _run_backend(relation, "inline")
        threaded, thread_replays, thread_sessions, thread_spent = _run_backend(
            relation, "thread"
        )
        assert len(base) == len(threaded) == 3 * len(_requests("x"))
        for expected, got in zip(base, threaded):
            assert np.array_equal(expected.payload, got.payload)
            assert np.array_equal(expected.x_hat, got.x_hat)
            assert got.seed == expected.seed
            assert got.epsilon_spent == expected.epsilon_spent
        # Every replay is answered from its session's releases: the same bytes
        # as the first batch's answer, on both backends, at zero ε.
        for first, expected, got in zip(base, base_replays, thread_replays):
            assert expected.cached and got.cached
            assert got.payload.tobytes() == expected.payload.tobytes()
            assert expected.payload.tobytes() == first.payload.tobytes()
        for sessions, spent in ((inline_sessions, inline_spent), (thread_sessions, thread_spent)):
            assert [session.budget_consumed() for session in sessions] == spent
        for inline_session, thread_session in zip(inline_sessions, thread_sessions):
            assert thread_session.budget_consumed() == inline_session.budget_consumed()
            assert reconcile(inline_session)["exact"]
            assert reconcile(thread_session)["exact"]
        # A loose latency ceiling on every request, fresh or replayed.
        responses = base + base_replays + threaded + thread_replays
        assert max(response.elapsed_seconds for response in responses) <= 1.0

    def test_thread_backend_overlaps_an_injected_stall(self, relation):
        """Eight requests on eight sessions each pay a 50 ms pure-delay fault
        at the worker seam; eight driver threads wait those out together.
        This is overlap of an injected stall, not compute speed: plan
        compute runs no faster on threads."""

        def wall_seconds(backend):
            faults = FaultInjector()
            faults.arm("scheduler.worker", delay=0.05, times=8)
            manager = SessionManager()
            scheduler = PlanScheduler(
                manager, executor=backend, max_workers=8, fault_injector=faults
            )
            sessions = [
                manager.create_session("acme", relation, 10.0, seed=i) for i in range(8)
            ]
            requests = [
                QueryRequest(session.session_id, plan="Identity", epsilon=0.1)
                for session in sessions
            ]
            start = time.perf_counter()
            scheduler.execute_batch(requests)
            elapsed = time.perf_counter() - start
            scheduler.shutdown()
            assert len(faults.fired) == 8
            return elapsed

        assert wall_seconds("thread") <= 0.5 * wall_seconds("inline")

    @pytest.mark.parametrize("backend", ["inline", "thread"])
    def test_backend_journals_every_charge(self, relation, backend):
        journal = PrivacyJournal(None)
        manager = SessionManager()
        scheduler = PlanScheduler(manager, executor=backend)
        session = manager.create_session(
            "acme", relation, 4.0, seed=3, journal=journal
        )
        response = scheduler.execute(
            QueryRequest(session.session_id, plan="Identity", epsilon=0.5)
        )
        scheduler.shutdown()
        assert response.epsilon_spent > 0
        assert session.budget_consumed() == response.epsilon_spent
        # Every charge reached the journal, inside the request's commit record.
        charges = [
            part["p"]
            for record in journal.iter_records()
            if record["kind"] == "commit"
            for part in record["records"]
            if part["kind"] == "charge"
        ]
        assert charges and sum(charges) == pytest.approx(response.epsilon_spent)
        assert reconcile(session)["exact"]

    @pytest.mark.parametrize("backend", ["inline", "thread"])
    def test_backend_propagates_original_exception(self, relation, backend):
        manager = SessionManager()
        scheduler = PlanScheduler(manager, executor=backend)
        session = manager.create_session("acme", relation, 0.1, seed=3)
        with pytest.raises(BudgetExceededError):
            scheduler.execute(
                QueryRequest(session.session_id, plan="Identity", epsilon=0.5)
            )
        scheduler.shutdown()
        assert session.events[-1].error == "BudgetExceededError"
        assert reconcile(session)["exact"]

    def test_batch_drives_on_the_scheduler_pool(self, relation):
        # execute_batch fans out over the scheduler's own executor: every
        # request runs on one of its ``max_workers`` driver threads.
        tracer = Tracer()
        manager = SessionManager()
        scheduler = PlanScheduler(
            manager, executor="thread", max_workers=2, tracer=tracer
        )
        sessions = [
            manager.create_session("acme", relation, 10.0, seed=i) for i in range(4)
        ]
        requests = [
            QueryRequest(session.session_id, plan="Identity", epsilon=0.1)
            for session in sessions
            for _ in range(2)
        ]
        responses = scheduler.execute_batch(requests)
        scheduler.shutdown()
        assert len(responses) == len(requests)
        roots = [span for span in tracer.spans() if span.name == "service.request"]
        assert len(roots) == len(requests)
        threads = {span.thread for span in roots}
        assert 1 <= len(threads) <= 2
        assert all(name.startswith("svc-driver") for name in threads)

    def test_inline_batch_drives_on_the_calling_thread(self, relation):
        tracer = Tracer()
        manager = SessionManager()
        scheduler = PlanScheduler(manager, executor="inline", tracer=tracer)
        session = manager.create_session("acme", relation, 10.0, seed=1)
        scheduler.execute_batch(_requests(session.session_id))
        assert {span.thread for span in tracer.spans()} == {
            threading.current_thread().name
        }

    def test_inline_executor_captures_failures_in_the_future(self):
        executor = InlineExecutor()
        ok = executor.submit(threading.current_thread)
        assert ok.result() is threading.current_thread()

        def fail(exc):
            raise exc

        failed = executor.submit(fail, ValueError("boom"))
        assert isinstance(failed.exception(), ValueError)
        # A dying worker is captured too: the batch collector claims its
        # orphaned spend from the future.
        died = executor.submit(fail, WorkerDeath("gone"))
        assert isinstance(died.exception(), WorkerDeath)

    def test_thread_executor_runs_on_its_own_bounded_pool(self):
        executor = ThreadExecutor(max_workers=0)
        assert executor.max_workers == 1
        futures = [
            executor.submit(lambda i: (i, threading.current_thread().name), i)
            for i in range(6)
        ]
        results = [future.result(timeout=10) for future in futures]
        executor.shutdown()
        assert [i for i, _ in results] == list(range(6))
        (name,) = {name for _, name in results}
        assert name.startswith("svc-driver")
        assert name != threading.current_thread().name

    def test_seed_derivation_is_scheduling_independent(self):
        seed = derive_request_seed(7, "acme-s1", "acme-s1-r1", "('query',)")
        assert seed == derive_request_seed(7, "acme-s1", "acme-s1-r1", "('query',)")
        assert seed != derive_request_seed(7, "acme-s1", "acme-s1-r2", "('query',)")
        assert seed != derive_request_seed(8, "acme-s1", "acme-s1-r1", "('query',)")


class TestSharedArtifactCache:
    def test_one_cache_serves_two_schedulers(self, relation):
        # Artifacts are data-independent, so schedulers in one process may
        # share a cache: the second builds nothing the first already built.
        cache = ArtifactCache()
        first = PlanScheduler(SessionManager(), artifact_cache=cache, executor="inline")
        second = PlanScheduler(SessionManager(), artifact_cache=cache, executor="inline")
        for tenant, scheduler in (("acme", first), ("zeta", second)):
            session = scheduler.manager.create_session(tenant, relation, 10.0, seed=1)
            scheduler.execute(
                QueryRequest(
                    session.session_id,
                    plan="Identity",
                    epsilon=0.1,
                    workload="prefix",
                    workload_params={"n": N},
                )
            )
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 1
        assert cache.stats["entries"] == 1


class TestDrainCloseRace:
    def test_drain_close_races_execute_batch(self, relation):
        manager = SessionManager()
        scheduler = PlanScheduler(manager, max_workers=2, executor="thread")
        session = manager.create_session("acme", relation, 10.0, seed=1)
        entered, release = threading.Event(), threading.Event()
        original = scheduler._run_locked

        def slow_run(session_, request, request_id, queued_at, root):
            if not entered.is_set():
                entered.set()
                assert release.wait(timeout=10)
            return original(session_, request, request_id, queued_at, root)

        scheduler._run_locked = slow_run
        requests = [
            QueryRequest(session.session_id, plan="Identity", epsilon=0.1),
            QueryRequest(session.session_id, plan="Identity", epsilon=0.2),
        ]
        results: list = []
        batcher = threading.Thread(
            target=lambda: results.extend(
                scheduler.execute_batch(requests, return_exceptions=True)
            )
        )
        batcher.start()
        assert entered.wait(timeout=10)
        closer = threading.Thread(
            target=lambda: manager.close(session.session_id, drain=True)
        )
        closer.start()
        deadline = time.monotonic() + 10
        while not session.closing and time.monotonic() < deadline:
            time.sleep(0.001)
        assert session.closing
        assert not session.closed  # drain waits for the in-flight request
        release.set()
        batcher.join(timeout=10)
        closer.join(timeout=10)
        assert session.closed
        scheduler.shutdown()

        # The in-flight request finished and was ledgered; the queued one
        # was rejected at the lock with a SessionClosedError.
        outcomes = {type(result).__name__ for result in results}
        assert "QueryResponse" in outcomes
        assert "SessionClosedError" in outcomes
        response = next(r for r in results if isinstance(r, QueryResponse))
        assert response.epsilon_spent > 0
        rejected = next(r for r in results if isinstance(r, SessionClosedError))
        assert rejected.request_failure.error_type == "SessionClosedError"
        assert reconcile(session)["exact"]
        assert session.budget_consumed() == response.epsilon_spent


class _HeldExecutor(ExecutorBackend):
    """Holds every submitted call on one worker until ``release`` is set."""

    def __init__(self):
        self.submitted = threading.Event()
        self.release = threading.Event()
        self._pool = ThreadPoolExecutor(max_workers=1)

    def submit(self, fn, *args) -> Future:
        self.submitted.set()
        return self._pool.submit(self._held, fn, *args)

    def _held(self, fn, *args):
        assert self.release.wait(timeout=10)
        return fn(*args)

    def shutdown(self) -> None:
        self._pool.shutdown()


class TestBatchQueuedAcrossClose:
    def test_request_queued_across_drain_close_is_rejected(self, relation):
        # The request draws its id before dispatch and its worker starts
        # only after the drain-close has dropped the session: it must still
        # reject as closed, un-charged, not fail the session lookup.
        manager = SessionManager()
        backend = _HeldExecutor()
        scheduler = PlanScheduler(manager, executor=backend)
        session = manager.create_session("acme", relation, 10.0, seed=1, session_id="acme-s1")
        request = QueryRequest(session.session_id, plan="Identity", epsilon=0.1)
        results: list = []
        batcher = threading.Thread(
            target=lambda: results.extend(
                scheduler.execute_batch([request], return_exceptions=True)
            )
        )
        batcher.start()
        assert backend.submitted.wait(timeout=10)
        manager.close(session.session_id, drain=True)
        backend.release.set()
        batcher.join(timeout=10)
        assert not batcher.is_alive()
        scheduler.shutdown()

        (rejected,) = results
        assert isinstance(rejected, SessionClosedError)
        failure = rejected.request_failure
        assert failure.request_id == "acme-s1-r1" and failure.epsilon_spent == 0.0
        assert session.closed and session.budget_consumed() == 0.0
        assert reconcile(session)["exact"]


class TestMovingSessions:
    def test_journal_attached_at_close_moves_a_session_between_schedulers(self, relation):
        source_manager = SessionManager()
        source = PlanScheduler(source_manager, executor="inline")
        session = source_manager.create_session(
            "acme", relation, 10.0, seed=7, session_id="acme-s1"
        )
        first = source.execute(QueryRequest("acme-s1", plan="Identity", epsilon=0.1))
        before_budget = session.budget_consumed()
        session.begin_close()  # no new requests; in-flight ones drain first
        source.manager.close("acme-s1")
        journal = PrivacyJournal(None)
        session.attach_journal(journal)  # the whole session, as it closed

        target = PlanScheduler(SessionManager(), executor="inline")
        moved = target.restore_session(relation, journal)
        assert moved.budget_consumed() == before_budget
        assert reconcile(moved)["exact"]
        # Released answers crossed with the session: zero-ε replay.
        replay = target.execute(QueryRequest("acme-s1", plan="Identity", epsilon=0.1))
        assert replay.cached and replay.epsilon_spent == 0.0
        assert np.array_equal(replay.x_hat, first.x_hat)

        # New work after the move is byte-identical to a control that never
        # moved: the base seed and request counter crossed intact.
        fresh = target.execute(QueryRequest("acme-s1", plan="Identity", epsilon=0.2))
        control_manager = SessionManager()
        control = PlanScheduler(control_manager, executor="inline")
        control_manager.create_session(
            "acme", relation, 10.0, seed=7, session_id="acme-s1"
        )
        # Mirror the moved session's request sequence exactly — the cached
        # replay consumed a request id too.
        control.execute(QueryRequest("acme-s1", plan="Identity", epsilon=0.1))
        control.execute(QueryRequest("acme-s1", plan="Identity", epsilon=0.1))
        control_fresh = control.execute(
            QueryRequest("acme-s1", plan="Identity", epsilon=0.2)
        )
        assert np.array_equal(fresh.x_hat, control_fresh.x_hat)
        assert fresh.seed == control_fresh.seed

    def test_a_moved_session_moves_again(self, relation):
        # A restored session holds what it restored plus what it did since;
        # a journal attached at its close writes both, so a second move
        # lands the same ledger, history, events and releases.
        def move(scheduler, session):
            session.begin_close()
            scheduler.manager.close(session.session_id)
            journal = PrivacyJournal(None)
            session.attach_journal(journal)
            target = PlanScheduler(SessionManager(), executor="inline")
            return target, target.restore_session(relation, journal)

        source_manager = SessionManager()
        source = PlanScheduler(source_manager, executor="inline")
        session = source_manager.create_session(
            "acme", relation, 10.0, seed=7, session_id="acme-s1"
        )
        requests = [
            QueryRequest("acme-s1", plan="Identity", epsilon=epsilon) for epsilon in (0.1, 0.2)
        ]
        answers = [source.execute(requests[0])]
        middle, once = move(source, session)
        answers.append(middle.execute(requests[1]))
        target, twice = move(middle, once)

        assert twice.budget_consumed() == once.budget_consumed() == pytest.approx(0.3)
        assert reconcile(twice)["exact"]
        assert twice.kernel.budget_tracker.ledger() == once.kernel.budget_tracker.ledger()
        assert twice.kernel.history() == once.kernel.history()
        assert twice.events == once.events
        assert twice.request_counter == once.request_counter
        for request, original in zip(requests, answers):
            replay = target.execute(request)
            assert replay.cached and replay.epsilon_spent == 0.0
            assert replay.x_hat.tobytes() == original.x_hat.tobytes()
        assert twice.budget_consumed() == once.budget_consumed()

    def test_journal_moves_a_session_between_schedulers(self, relation, tmp_path):
        # The journal alone carries a session too: ledger, released answers,
        # base seed and request counter are all replayed from its records.
        path = tmp_path / "acme-s1.wal"
        source_manager = SessionManager()
        source = PlanScheduler(source_manager, executor="inline")
        session = source_manager.create_session(
            "acme", relation, 10.0, seed=7, session_id="acme-s1",
            journal=PrivacyJournal(path),
        )
        first = source.execute(QueryRequest("acme-s1", plan="Identity", epsilon=0.1))
        second = source.execute(QueryRequest("acme-s1", plan="Identity", epsilon=0.2))
        before_budget = session.budget_consumed()
        source.manager.close("acme-s1")
        session.journal.close()

        target = PlanScheduler(SessionManager(), executor="inline")
        moved = target.restore_session(relation, journal=PrivacyJournal(path))
        assert moved.session_id == "acme-s1"
        assert moved.budget_consumed() == before_budget
        assert reconcile(moved)["exact"]
        for original in (first, second):
            replay = target.execute(
                QueryRequest("acme-s1", plan="Identity", epsilon=original.epsilon_spent)
            )
            assert replay.cached and replay.epsilon_spent == 0.0
            assert np.array_equal(replay.x_hat, original.x_hat)
        assert moved.budget_consumed() == before_budget

    def test_restore_without_a_scheduler_replays_releases(self, relation, tmp_path):
        # Given only a manager, the durability-level restore brings the
        # session's releases back with it: the pre-crash answer replays free
        # on any scheduler over that manager.
        path = tmp_path / "session.wal"
        manager = SessionManager()
        scheduler = PlanScheduler(manager, executor="inline")
        session = manager.create_session(
            "acme", relation, 10.0, seed=5, journal=PrivacyJournal(path)
        )
        request = QueryRequest(session.session_id, plan="Identity", epsilon=0.1)
        first = scheduler.execute(request)
        scheduler.execute(QueryRequest(session.session_id, plan="Identity", epsilon=0.2))
        session.journal.close()

        restored_manager = SessionManager()
        restored = restore_session(
            relation, journal=PrivacyJournal(path), manager=restored_manager
        )
        spent = restored.budget_consumed()
        replayed = PlanScheduler(restored_manager, executor="inline").execute(request)
        assert replayed.cached and replayed.epsilon_spent == 0.0
        assert replayed.payload.tobytes() == first.payload.tobytes()
        assert restored.budget_consumed() == spent
        assert reconcile(restored)["exact"]

    def test_moving_every_session_keeps_each_ledger(self, relation):
        source_manager = SessionManager()
        source = PlanScheduler(source_manager, executor="inline")
        sessions = [
            source_manager.create_session("acme", relation, 10.0, seed=i)
            for i in range(6)
        ]
        for i, session in enumerate(sessions):
            source.execute(
                QueryRequest(session.session_id, plan="Identity", epsilon=0.05 * (i + 1))
            )
        spent = {s.session_id: s.budget_consumed() for s in sessions}
        journals = []
        for session in sessions:
            session.begin_close()
            source.manager.close(session.session_id)
            journals.append(PrivacyJournal(None))
            session.attach_journal(journals[-1])

        target_manager = SessionManager()
        target = PlanScheduler(target_manager, executor="inline")
        for journal in journals:
            target.restore_session(relation, journal)
        moved = {s.session_id: s for s in target_manager.sessions()}
        assert set(moved) == set(spent)
        for session_id, session in moved.items():
            assert session.budget_consumed() == spent[session_id]
            assert reconcile(session)["exact"]
        # The target's metrics are its audit trail: every moved request.
        odometer = telemetry_report(target)["privacy_odometer"]["acme"]
        assert odometer["requests"] == len(sessions)
        assert odometer["total_spent"] == math.fsum(
            event.epsilon_spent for session in moved.values() for event in session.events
        )
