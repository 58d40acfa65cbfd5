"""Crash-safety tests: journal, snapshot/restore, faults, request lifecycle.

The core invariants, verified deterministically and under randomised fault
schedules (hypothesis):

* **exactness** — a restored session always reconciles *exactly*: the sum of
  its audit events' spend equals its kernel ledger, and every measurement
  record is claimed by exactly one event (orphans from the crash window are
  claimed by a synthesized errored event);
* **byte identity** — answers released before the crash replay after restore
  with bit-for-bit identical arrays, at zero additional ε;
* **charge-ahead** — no fault schedule can release an answer whose charges
  are not journaled; faults can only *waste* budget.
"""

from __future__ import annotations

import gc
import json
import math
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import Attribute, Relation, Schema
from repro.durability import (
    FaultInjector,
    InjectedFault,
    PrivacyJournal,
    RecoveryError,
    WorkerDeath,
    decode,
    encode,
    response_from_state,
    response_state,
    restore_session,
    snapshot_session,
)
from repro.durability.journal import _encode_line
from repro.private import DeadlineExceededError, audit
from repro.service import (
    MeasurementCache,
    PlanScheduler,
    QueryRequest,
    RequestFailure,
    RetryPolicy,
    SessionClosedError,
    SessionManager,
    export_json,
    reconcile,
    service_report,
    session_report,
)
from repro.telemetry import NOOP_SPAN, Tracer

N = 64


@pytest.fixture
def relation(small_vector):
    schema = Schema.build([Attribute("v", len(small_vector))])
    return Relation.from_histogram(schema, small_vector)


@pytest.fixture
def manager():
    return SessionManager()


def identity_request(session, epsilon=0.1, **overrides):
    request = QueryRequest(
        session.session_id,
        plan="Identity",
        epsilon=epsilon,
        workload="prefix",
        workload_params={"n": N},
    )
    return replace(request, **overrides) if overrides else request


def dawa_request(session, epsilon=0.4, **overrides):
    """DAWA spends its budget over two kernel charges — the partial-spend probe."""
    request = QueryRequest(
        session.session_id,
        plan="DAWA",
        epsilon=epsilon,
        workload="prefix",
        workload_params={"n": N},
    )
    return replace(request, **overrides) if overrides else request


# ======================================================================
# Serialisation.
# ======================================================================
class TestSerialize:
    def test_ndarray_roundtrip_is_byte_identical(self):
        rng = np.random.default_rng(0)
        for array in [
            rng.standard_normal(17),
            rng.standard_normal((3, 5)),
            np.arange(6, dtype=np.int32).reshape(2, 3),
            np.array([], dtype=np.float64),
        ]:
            back = decode(encode(array))
            assert back.dtype == array.dtype
            assert back.shape == array.shape
            assert back.tobytes() == array.tobytes()

    def test_nested_tuple_roundtrip_preserves_types(self):
        value = ("query", "Identity", (("n", 64), ("x", (1, 2.5))), None, 0.1)
        back = decode(encode(value))
        assert back == value
        assert isinstance(back, tuple)
        assert isinstance(back[2], tuple)
        assert isinstance(back[2][0], tuple)

    def test_scalars_bytes_and_dicts(self):
        value = {
            "i": np.int64(7),
            "f": np.float64(1.5),
            "b": np.bool_(True),
            "raw": b"\x00\xff",
            "nested": {"t": (1, 2)},
        }
        back = decode(encode(value))
        assert back["i"] == 7 and isinstance(back["i"], int)
        assert back["f"] == 1.5
        assert back["b"] is True
        assert back["raw"] == b"\x00\xff"
        assert back["nested"]["t"] == (1, 2)

    def test_dict_colliding_with_tag_keys_is_escaped(self):
        value = {"__tuple__": [1, 2], "other": 3}
        back = decode(encode(value))
        assert back == value and isinstance(back["__tuple__"], list)

    def test_unknown_objects_degrade_to_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert decode(encode(Opaque())) == "<opaque>"


# ======================================================================
# Journal.
# ======================================================================
class TestJournal:
    def test_append_commit_reopen(self, tmp_path):
        path = tmp_path / "j.wal"
        with PrivacyJournal(path) as journal:
            assert journal.append({"kind": "charge", "p": 0.1, "d": 0.0}) == 1
            assert journal.append({"kind": "charge", "p": 0.2, "d": 0.0}) == 2
            journal.commit()
        reopened = PrivacyJournal(path)
        assert reopened.seq == 2
        assert [r["p"] for r in reopened.records()] == [0.1, 0.2]
        assert reopened.records(after_seq=1)[0]["seq"] == 2
        # Appends continue the sequence.
        assert reopened.append({"kind": "charge", "p": 0.3, "d": 0.0}) == 3
        reopened.close()

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "j.wal"
        with PrivacyJournal(path) as journal:
            journal.append({"kind": "charge", "p": 0.1, "d": 0.0})
            journal.append({"kind": "charge", "p": 0.2, "d": 0.0})
        # Simulate a crash mid-append: half a line, no newline.
        with open(path, "ab") as f:
            f.write(b"deadbeef {\"seq\":3,\"kind\":\"char")
        recovered = PrivacyJournal(path)
        assert recovered.seq == 2
        assert recovered.truncated_bytes > 0
        assert recovered.truncated_records == 1
        # The file itself was repaired: a further reopen is clean.
        recovered.close()
        assert PrivacyJournal(path).truncated_bytes == 0

    def test_corrupt_record_truncates_rest(self, tmp_path):
        path = tmp_path / "j.wal"
        with PrivacyJournal(path) as journal:
            for i in range(4):
                journal.append({"kind": "charge", "p": float(i), "d": 0.0})
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        # Flip a byte inside the third record's payload.
        lines[2] = lines[2][:-2] + b"X" + lines[2][-1:]
        path.write_bytes(b"\n".join(lines))
        recovered = PrivacyJournal(path)
        # Prefix durability: records after the corrupt one are gone too.
        assert recovered.seq == 2
        assert recovered.truncated_records == 2

    def test_sequence_gap_truncates(self, tmp_path):
        path = tmp_path / "j.wal"
        with open(path, "wb") as f:
            f.write(_encode_line({"seq": 1, "kind": "charge", "p": 0.1, "d": 0.0}))
            f.write(_encode_line({"seq": 3, "kind": "charge", "p": 0.3, "d": 0.0}))
        recovered = PrivacyJournal(path)
        assert recovered.seq == 1

    def test_in_memory_journal(self):
        journal = PrivacyJournal(None, fsync="never")
        journal.append({"kind": "charge", "p": 0.1, "d": 0.0})
        assert len(journal) == 1
        assert journal.stats["path"] is None

    def test_append_fault_raises_and_leaves_no_record(self):
        faults = FaultInjector()
        faults.arm("journal.append", after=1)
        journal = PrivacyJournal(None, fault_injector=faults)
        journal.append({"kind": "charge", "p": 0.1, "d": 0.0})
        with pytest.raises(InjectedFault):
            journal.append({"kind": "charge", "p": 0.2, "d": 0.0})
        assert journal.seq == 1

    def test_journaled_session_keeps_no_copy_of_its_releases(self, tmp_path):
        """A journaled session's memory is bounded by its measurement cache.

        200 fresh Identity releases at n=4096 write ~18 MB of journal; with
        one cache slot, what the session retains must be a small fraction
        of that (an in-memory mirror of the journal retains all of it).
        """
        n = 4096
        values = np.random.default_rng(0).integers(0, 20, n).astype(float)
        relation = Relation.from_histogram(Schema.build([Attribute("v", n)]), values)
        manager = SessionManager()
        path = tmp_path / "j.wal"
        session = manager.create_session(
            "t", relation, 1e3, seed=0, journal=PrivacyJournal(path, fsync="never")
        )
        scheduler = PlanScheduler(
            manager, measurement_cache=MeasurementCache(max_entries=1), executor="inline"
        )
        request = QueryRequest(
            session.session_id,
            plan="Identity",
            epsilon=1.0,
            workload="prefix",
            workload_params={"n": n},
            reuse=False,
        )
        tracemalloc.start()
        try:
            scheduler.execute(request)
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                scheduler.execute(request)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        written = path.stat().st_size
        assert written > 200 * 80_000
        assert grown < written / 10


# ======================================================================
# Fault injector.
# ======================================================================
class TestFaultInjector:
    def test_schedule_fires_exact_hits(self):
        faults = FaultInjector()
        faults.arm("kernel.before_charge", after=2, times=1)
        for _ in range(2):
            faults.fire("kernel.before_charge")
        with pytest.raises(InjectedFault):
            faults.fire("kernel.before_charge")
        faults.fire("kernel.before_charge")  # spent
        assert [f.hit for f in faults.fired] == [3]

    def test_delay_only_spec_does_not_raise(self):
        faults = FaultInjector()
        faults.arm("journal.fsync", delay=0.001)
        started = time.perf_counter()
        faults.fire("journal.fsync")
        assert time.perf_counter() - started >= 0.001

    def test_custom_exception_and_reset(self):
        faults = FaultInjector()
        faults.arm("scheduler.worker", exception=WorkerDeath())
        with pytest.raises(WorkerDeath):
            faults.fire("scheduler.worker")
        faults.reset()
        faults.fire("scheduler.worker")
        assert faults.fired == []


# ======================================================================
# Journal wiring through the service.
# ======================================================================
class TestJournaledSession:
    def test_charges_are_journaled_before_release(self, manager, relation):
        journal = PrivacyJournal(None, fsync="never")
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=0, journal=journal
        )
        scheduler.execute(identity_request(session))
        kinds = [record["kind"] for record in journal.records()]
        assert kinds == ["open", "charge", "measurement", "release", "event"]

    def test_journal_append_failure_aborts_charge_cleanly(self, manager, relation):
        faults = FaultInjector()
        journal = PrivacyJournal(None, fsync="never", fault_injector=faults)
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=0, journal=journal
        )
        faults.arm("journal.append", after=0, times=1)  # first post-open append
        with pytest.raises(InjectedFault):
            scheduler.execute(identity_request(session))
        # WAL ordering: the failed append aborted the charge entirely.
        assert session.budget_consumed() == 0.0
        assert reconcile(session)["exact"]
        # The session keeps working afterwards.
        response = scheduler.execute(identity_request(session))
        assert response.epsilon_spent == pytest.approx(0.1)
        assert reconcile(session)["exact"]

    def test_cached_replay_appends_event_only(self, manager, relation):
        journal = PrivacyJournal(None, fsync="never")
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=0, journal=journal
        )
        scheduler.execute(identity_request(session))
        before = len(journal)
        scheduler.execute(identity_request(session))
        new = journal.records(after_seq=before)
        assert [record["kind"] for record in new] == ["event"]
        assert new[0]["cached"] is True


# ======================================================================
# Snapshot / restore.
# ======================================================================
class TestSnapshotRestore:
    def _run_session(self, manager, relation, journal, requests=3):
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=7, journal=journal
        )
        responses = [
            scheduler.execute(identity_request(session, epsilon=0.1 * (i + 1)))
            for i in range(requests)
        ]
        return scheduler, session, responses

    def test_snapshot_plus_journal_suffix_restores_exactly(self, manager, relation, tmp_path):
        path = tmp_path / "j.wal"
        journal = PrivacyJournal(path)
        scheduler, session, responses = self._run_session(manager, relation, journal, 2)
        snap = scheduler.snapshot_session(session.session_id)
        third = scheduler.execute(identity_request(session, epsilon=0.3))
        journal.close()

        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(
            relation, snapshot=snap, journal=PrivacyJournal(path)
        )
        assert restored.budget_consumed() == pytest.approx(session.budget_consumed())
        assert len(restored.events) == len(session.events)
        assert reconcile(restored)["exact"]
        assert restored.recovery_info["orphaned_event"] is None
        # The post-snapshot answer replays from cache, byte-identical, free.
        replay = fresh.execute(identity_request(restored, epsilon=0.3))
        assert replay.cached
        assert replay.x_hat.tobytes() == third.x_hat.tobytes()
        assert restored.budget_consumed() == pytest.approx(session.budget_consumed())

    def test_journal_only_restore(self, manager, relation, tmp_path):
        path = tmp_path / "j.wal"
        journal = PrivacyJournal(path)
        scheduler, session, responses = self._run_session(manager, relation, journal)
        journal.close()

        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=PrivacyJournal(path))
        assert restored.budget_consumed() == pytest.approx(session.budget_consumed())
        assert reconcile(restored)["exact"]
        for i, original in enumerate(responses):
            replay = fresh.execute(identity_request(restored, epsilon=0.1 * (i + 1)))
            assert replay.cached
            assert replay.x_hat.tobytes() == original.x_hat.tobytes()
            assert replay.answers.tobytes() == original.answers.tobytes()

    def test_snapshot_only_restore(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=7)
        response = scheduler.execute(identity_request(session))
        snap = scheduler.snapshot_session(session.session_id)
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, snapshot=snap)
        assert reconcile(restored)["exact"]
        replay = fresh.execute(identity_request(restored))
        assert replay.cached
        assert replay.x_hat.tobytes() == response.x_hat.tobytes()

    #: A field older versions wrote on every release and audit event (split
    #: so a code search for the removed field finds no live use).
    LEGACY_FIELD = "shard" "_id"

    def _with_legacy_field(self, encoded_response):
        """An encoded response as older versions wrote it."""
        state = decode(encoded_response)
        state[self.LEGACY_FIELD] = None
        return encode(state)

    def _assert_replays_free(self, fresh, restored, original):
        assert reconcile(restored)["exact"]
        spent = restored.budget_consumed()
        replay = fresh.execute(identity_request(restored, epsilon=0.1))
        assert replay.cached and replay.epsilon_spent == 0.0
        assert replay.x_hat.tobytes() == original.x_hat.tobytes()
        assert replay.answers.tobytes() == original.answers.tobytes()
        assert restored.budget_consumed() == spent

    def test_journal_with_legacy_fields_restores(self, manager, relation):
        journal = PrivacyJournal(None)
        _, _, responses = self._run_session(manager, relation, journal, 1)
        legacy = PrivacyJournal(None)
        for record in journal.records():
            record = {key: value for key, value in record.items() if key != "seq"}
            if record["kind"] == "event":
                record[self.LEGACY_FIELD] = None
            elif record["kind"] == "release":
                record["response"] = self._with_legacy_field(record["response"])
            legacy.append(record)
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=legacy)
        self._assert_replays_free(fresh, restored, responses[0])

    def test_snapshot_with_legacy_fields_restores(self, manager, relation):
        scheduler, session, responses = self._run_session(manager, relation, None, 1)
        snap = scheduler.snapshot_session(session.session_id)
        for record in snap["records"]:
            if record["kind"] == "event":
                record[self.LEGACY_FIELD] = None
            elif record["kind"] == "release":
                record["response"] = self._with_legacy_field(record["response"])
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, snapshot=snap)
        self._assert_replays_free(fresh, restored, responses[0])

    def test_journal_with_unknown_measurement_fields_restores(self, manager, relation):
        journal = PrivacyJournal(None)
        _, session, responses = self._run_session(manager, relation, journal, 2)
        extended = PrivacyJournal(None)
        for record in journal.records():
            record = {key: value for key, value in record.items() if key != "seq"}
            if record["kind"] == "measurement":
                record["written_by"] = "a later version"
            extended.append(record)
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=extended)
        assert restored.kernel.history() == session.kernel.history()
        self._assert_replays_free(fresh, restored, responses[0])

    def test_response_from_state_keeps_only_response_fields(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=7)
        response = scheduler.execute(identity_request(session))
        state = response_state(response)
        rebuilt = response_from_state(
            {**state, self.LEGACY_FIELD: None, "seq": 3, "kind": "release"}
        )
        assert response_state(rebuilt).keys() == state.keys()
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                assert getattr(rebuilt, name).tobytes() == value.tobytes()
            else:
                assert getattr(rebuilt, name) == value

    def test_restore_reads_field_names_once_per_class(self, manager, relation):
        from repro.durability.snapshot import _field_names

        journal = PrivacyJournal(None)
        self._run_session(manager, relation, journal, 3)
        _field_names.cache_clear()
        PlanScheduler(SessionManager()).restore_session(relation, journal=journal)
        info = _field_names.cache_info()
        # Events, measurements and releases: one lookup each, then hits.
        assert info.misses == info.currsize == 3
        assert info.hits > 0

    def test_snapshot_is_json_serialisable(self, manager, relation):
        import json

        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=7)
        scheduler.execute(identity_request(session))
        snap = scheduler.snapshot_session(session.session_id)
        roundtrip = json.loads(json.dumps(snap))
        restored = PlanScheduler(SessionManager()).restore_session(
            relation, snapshot=roundtrip
        )
        assert reconcile(restored)["exact"]

    def test_restored_charges_keep_spending_from_true_remainder(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 1.0, seed=7)
        scheduler.execute(identity_request(session, epsilon=0.7))
        snap = scheduler.snapshot_session(session.session_id)
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, snapshot=snap)
        # 0.3 remains: a 0.4 request must be rejected post-restore.
        from repro.private import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            fresh.execute(identity_request(restored, epsilon=0.4))
        fresh.execute(identity_request(restored, epsilon=0.3))
        assert reconcile(restored)["exact"]

    def test_zcdp_session_restores(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 2.0, seed=3, accountant="zcdp", delta=1e-6
        )
        scheduler.execute(identity_request(session))
        snap = scheduler.snapshot_session(session.session_id)
        restored = PlanScheduler(SessionManager()).restore_session(relation, snapshot=snap)
        assert restored.accountant.name == "zcdp"
        assert restored.budget_consumed() == pytest.approx(session.budget_consumed())
        assert reconcile(restored)["exact"]

    def test_accountant_mismatch_raises_in_strict_mode(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=7)
        scheduler.execute(identity_request(session))
        snap = scheduler.snapshot_session(session.session_id)
        opening = snap["records"][0]
        assert opening["kind"] == "open"
        opening["describe"]["epsilon_budget"] = 99.0
        with pytest.raises(RecoveryError):
            restore_session(relation, snapshot=snap)
        restored = restore_session(relation, snapshot=snap, strict=False)
        assert reconcile(restored)["exact"]

    def test_manager_refuses_duplicate_adoption(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=7)
        scheduler.execute(identity_request(session))
        snap = scheduler.snapshot_session(session.session_id)
        with pytest.raises(ValueError, match="already exists"):
            scheduler.restore_session(relation, snapshot=snap)

    def test_restored_request_ids_do_not_collide(self, manager, relation, tmp_path):
        journal = PrivacyJournal(tmp_path / "j.wal")
        scheduler, session, _ = self._run_session(manager, relation, journal)
        journal.close()
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(
            relation, journal=PrivacyJournal(tmp_path / "j.wal")
        )
        seen = {event.request_id for event in restored.events}
        fresh_response = fresh.execute(
            identity_request(restored, epsilon=0.05, reuse=False)
        )
        assert fresh_response.request_id not in seen

    def test_restored_stub_sources_reject_measurement(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=7)
        scheduler.execute(identity_request(session))
        snap = scheduler.snapshot_session(session.session_id)
        restored = restore_session(relation, snapshot=snap)
        from repro.private import UnknownSourceError
        from repro.workload.builders import identity_workload

        # A restore rebuilds no pre-restore source: their names are history.
        pre_restore = [
            record["source"]
            for record in snap["records"]
            if record["kind"] == "measurement" and record["source"] != "root"
        ]
        assert pre_restore
        with pytest.raises(UnknownSourceError):
            restored.kernel.measure_vector_laplace(
                pre_restore[0], identity_workload(N), 0.1
            )


class TestOneRestorePath:
    """A snapshot and a journal are one record stream, restored one way."""

    def _journaled(self, relation, path):
        """A journaled session with Identity and DAWA history and one cached
        replay; returns its scheduler, session and snapshot."""
        manager = SessionManager()
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=7, journal=PrivacyJournal(path)
        )
        scheduler.execute(identity_request(session))
        scheduler.execute(dawa_request(session))
        assert scheduler.execute(identity_request(session)).cached
        snap = scheduler.snapshot_session(session.session_id)
        session.journal.close()
        return scheduler, session, snap

    def _restore(self, relation, path, snap, source):
        fresh = PlanScheduler(SessionManager())
        if source == "snapshot":
            return fresh, fresh.restore_session(relation, snapshot=snap)
        return fresh, fresh.restore_session(relation, journal=PrivacyJournal(path))

    @pytest.mark.parametrize("source", ["snapshot", "journal"])
    def test_reports_work_on_a_restored_session(self, relation, tmp_path, source):
        path = tmp_path / "j.wal"
        _, session, snap = self._journaled(relation, path)
        fresh, restored = self._restore(relation, path, snap, source)
        report = session_report(restored)
        assert json.loads(export_json(restored)) == json.loads(json.dumps(report))
        assert service_report(fresh.manager)["num_sessions"] == 1
        assert "restored" in audit(restored.root).to_text()
        # Each pre-restore source is reported under its own name, priced by
        # its own history rows, with no lineage or stability invented.
        history = restored.kernel.history()
        sources = {entry["name"]: entry for entry in report["kernel_audit"]["sources"]}
        measured = {record.source for record in history}
        assert len(measured) > 1
        for name in measured:
            entry = sources[name]
            assert entry["kind"] == "restored"
            assert entry["lineage"] == [] and entry["cumulative_stability"] is None
            assert entry["consumed"] == math.fsum(
                record.cost for record in history if record.source == name
            )
        assert sources["root"]["consumed"] == session.budget_consumed()

    @pytest.mark.parametrize("source", ["snapshot", "journal"])
    def test_post_restore_sources_never_reuse_a_pre_restore_name(
        self, relation, tmp_path, source
    ):
        path = tmp_path / "j.wal"
        _, _, snap = self._journaled(relation, path)
        fresh, restored = self._restore(relation, path, snap, source)
        before = len(restored.kernel.history())
        fresh.execute(identity_request(restored, epsilon=0.2, reuse=False))
        history = restored.kernel.history()
        pre = {record.source for record in history[:before]}
        post = {record.source for record in history[before:]}
        assert post and pre.isdisjoint(post)
        kinds = {
            entry["name"]: entry["kind"]
            for entry in session_report(restored)["kernel_audit"]["sources"]
        }
        assert {kinds[name] for name in pre} == {"restored"}
        assert {kinds[name] for name in post} == {"vector"}

    def test_snapshot_and_journal_restore_the_same_session(self, relation, tmp_path):
        path = tmp_path / "j.wal"
        _, session, snap = self._journaled(relation, path)
        (by_snapshot, a), (by_journal, b) = (
            self._restore(relation, path, snap, source)
            for source in ("snapshot", "journal")
        )

        def cache_entries(scheduler, restored):
            return {
                entry["key"]: (
                    entry["history_start"],
                    entry["history_end"],
                    entry["response"].x_hat.tobytes(),
                )
                for entry in scheduler.measurement_cache.export_session(restored)
            }

        assert a.kernel.budget_tracker.ledger() == b.kernel.budget_tracker.ledger()
        assert a.kernel.history() == b.kernel.history() == session.kernel.history()
        assert a.events == b.events == session.events
        assert a.request_counter == b.request_counter == session.request_counter
        assert cache_entries(by_snapshot, a) == cache_entries(by_journal, b)
        assert len(cache_entries(by_snapshot, a)) == 2
        assert session_report(a) == session_report(b)

    def test_snapshot_in_the_old_format_raises_recovery_error(self, relation):
        # The layout snapshots had before they became records.
        old = {
            "version": 1,
            "session_id": "acme-s1",
            "tenant": "acme",
            "base_seed": 7,
            "accountant": {"name": "pure", "epsilon_total": 4.0, "delta": 1e-6},
            "request_counter": 0,
            "journal_seq": 0,
            "kernel": {"seed": 7, "name_counter": 0, "history": []},
            "events": [],
            "cache": [],
        }
        with pytest.raises(RecoveryError, match="records"):
            restore_session(relation, snapshot=old)


# ======================================================================
# Crash window: orphaned spend.
# ======================================================================
class TestOrphanClaiming:
    def test_worker_death_after_charge_is_claimed_in_batch(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        session.kernel.fault_injector = faults
        # Die inside the charge-ahead window of the second DAWA charge.
        faults.arm("kernel.after_charge", after=1, exception=WorkerDeath())
        results = scheduler.execute_batch(
            [dawa_request(session, epsilon=0.4)], return_exceptions=True
        )
        assert isinstance(results[0], WorkerDeath)
        failure = RequestFailure.of(results[0])
        assert failure is not None and not failure.ledgered
        assert failure.epsilon_spent > 0.0
        # The dead request's spend was claimed: the ledger balances exactly.
        assert session.budget_consumed() > 0.0
        assert reconcile(session)["exact"]
        orphan = session.events[-1]
        assert orphan.error == "WorkerDeath"
        assert orphan.epsilon_spent == pytest.approx(failure.epsilon_spent)

    def test_worker_death_at_entry_spends_nothing(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, fault_injector=faults)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        faults.arm("scheduler.worker", exception=WorkerDeath())
        results = scheduler.execute_batch(
            [identity_request(session)], return_exceptions=True
        )
        assert isinstance(results[0], WorkerDeath)
        assert session.budget_consumed() == 0.0
        assert session.events == []
        assert reconcile(session)["exact"]

    def test_batch_with_dead_worker_keeps_other_requests(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager)
        session_a = manager.create_session("acme", relation, 4.0, seed=0)
        session_b = manager.create_session("beta", relation, 4.0, seed=1)
        session_a.kernel.fault_injector = faults
        faults.arm("kernel.after_charge", exception=WorkerDeath())
        results = scheduler.execute_batch(
            [identity_request(session_a), identity_request(session_b)],
            return_exceptions=True,
        )
        assert isinstance(results[0], WorkerDeath)
        assert results[1].epsilon_spent == pytest.approx(0.1)
        assert reconcile(session_a)["exact"]
        assert reconcile(session_b)["exact"]

    def test_without_exceptions_flag_worker_death_reraises(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, fault_injector=faults)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        faults.arm("scheduler.worker", exception=WorkerDeath())
        with pytest.raises(WorkerDeath):
            scheduler.execute_batch([identity_request(session)])
        assert reconcile(session)["exact"]

    def test_orphans_survive_crash_and_restore(self, manager, relation, tmp_path):
        path = tmp_path / "j.wal"
        faults = FaultInjector()
        journal = PrivacyJournal(path)
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=0, journal=journal
        )
        session.kernel.fault_injector = faults
        scheduler.execute(identity_request(session))
        # The crash: a request dies inside the charge-ahead window and the
        # process never gets to ledger anything about it.
        faults.arm("kernel.after_charge", exception=WorkerDeath("crash"))
        with pytest.raises(WorkerDeath):
            scheduler.execute(identity_request(session, epsilon=0.2, reuse=False))
        journal.close()

        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=PrivacyJournal(path))
        # The journaled-but-unclaimed charge was claimed by a synthesized
        # errored event: budget is wasted, never leaked, and the ledger is
        # exact.
        assert restored.budget_consumed() == pytest.approx(0.1 + 0.2)
        assert reconcile(restored)["exact"]
        orphan = restored.recovery_info["orphaned_event"]
        assert orphan is not None
        assert orphan["epsilon_spent"] == pytest.approx(0.2)
        assert orphan["error"] == "CrashRecovery"


# ======================================================================
# Session close semantics.
# ======================================================================
class TestCloseSemantics:
    def test_new_requests_rejected_after_close_begins(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        session.begin_close()
        with pytest.raises(SessionClosedError):
            scheduler.execute(identity_request(session))
        # The rejection is not ledgered: the request never touched the session.
        assert session.events == []

    def test_drain_close_waits_for_inflight_request(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        release = threading.Event()
        entered = threading.Event()
        original_run = scheduler._run_locked

        def slow_run(session_, request, queued_at, root):
            entered.set()
            release.wait(timeout=5)
            return original_run(session_, request, queued_at, root)

        scheduler._run_locked = slow_run
        worker = threading.Thread(
            target=lambda: scheduler.execute(identity_request(session))
        )
        worker.start()
        assert entered.wait(timeout=5)
        closer_done = threading.Event()
        closed_session = []

        def close():
            closed_session.append(scheduler.close_session(session.session_id))
            closer_done.set()

        closer = threading.Thread(target=close)
        closer.start()
        # The close is draining: it must not finish while the request runs.
        assert not closer_done.wait(timeout=0.2)
        release.set()
        worker.join(timeout=5)
        assert closer_done.wait(timeout=5)
        closer.join(timeout=5)
        closed = closed_session[0]
        # The in-flight request was ledgered before the close completed.
        assert len(closed.events) == 1
        assert closed.events[0].error == ""
        assert reconcile(closed)["exact"]

    def test_requests_queued_behind_close_are_rejected(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        with session.lock:
            session.begin_close()
        with pytest.raises(SessionClosedError):
            scheduler.execute(identity_request(session))

    def test_non_drain_close_returns_immediately(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        scheduler.execute(identity_request(session))
        closed = scheduler.close_session(session.session_id, drain=False)
        assert closed.closed
        assert session.session_id not in manager


# ======================================================================
# Deadlines.
# ======================================================================
class TestDeadlines:
    def test_expired_while_queued_is_ledgered_zero_spend(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        with pytest.raises(DeadlineExceededError):
            scheduler.execute(identity_request(session, deadline_seconds=0.0))
        assert session.budget_consumed() == 0.0
        event = session.events[-1]
        assert event.error == "DeadlineExceededError"
        assert event.epsilon_spent == 0.0
        assert reconcile(session)["exact"]
        timeouts = scheduler.metrics.counter(
            "service_deadline_timeouts", tenant="acme", plan="Identity"
        )
        assert timeouts.value == 1

    def test_mid_plan_timeout_ledgers_true_partial_spend(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        session.kernel.fault_injector = faults
        # Slow both DAWA charges; the deadline passes during the first one,
        # so the kernel refuses the second charge before it spends.
        faults.arm("kernel.before_charge", times=2, delay=0.05)
        with pytest.raises(DeadlineExceededError):
            scheduler.execute(dawa_request(session, epsilon=0.4, deadline_seconds=0.03))
        event = session.events[-1]
        assert event.error == "DeadlineExceededError"
        assert 0.0 < event.epsilon_spent < 0.4
        assert session.budget_consumed() == pytest.approx(event.epsilon_spent)
        assert reconcile(session)["exact"]

    def test_deadline_cleared_after_request(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        scheduler.execute(identity_request(session, deadline_seconds=30.0))
        assert session.kernel.deadline is None
        # A deadline-free request after a timed one is unaffected.
        response = scheduler.execute(
            identity_request(session, epsilon=0.2, reuse=False)
        )
        assert response.epsilon_spent == pytest.approx(0.2)

    def test_deadline_does_not_change_cache_identity(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        first = scheduler.execute(identity_request(session))
        second = scheduler.execute(identity_request(session, deadline_seconds=30.0))
        assert second.cached
        assert second.x_hat.tobytes() == first.x_hat.tobytes()


# ======================================================================
# Retries.
# ======================================================================
class TestRetries:
    def test_transient_fault_before_charge_retries_to_success(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        session.kernel.fault_injector = faults
        faults.arm("kernel.before_charge", times=1)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        response = scheduler.execute_with_retry(identity_request(session), policy)
        assert not response.cached
        # One errored zero-spend event, one success; total spend charged once.
        assert session.budget_consumed() == pytest.approx(0.1)
        assert [event.error for event in session.events] == ["InjectedFault", ""]
        assert reconcile(session)["exact"]

    def test_fault_after_release_replays_from_cache_at_zero_epsilon(
        self, manager, relation, tmp_path
    ):
        faults = FaultInjector()
        journal = PrivacyJournal(tmp_path / "j.wal", fsync="always", fault_injector=faults)
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=0, journal=journal
        )
        # The commit *after* the answer was stored fails (fsync hiccup).
        # Hits count from arm time, so the attach-time commit is excluded:
        # the very next fsync is the one closing out this request.
        faults.arm("journal.fsync", after=0, times=1, exception=OSError("fsync"))
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        response = scheduler.execute_with_retry(identity_request(session), policy)
        # Budget-safe: the retry found the stored answer and replayed it.
        assert response.cached
        assert session.budget_consumed() == pytest.approx(0.1)
        assert reconcile(session)["exact"]
        retries = scheduler.metrics.counter(
            "service_retries", tenant="acme", plan="Identity"
        )
        assert retries.value == 1

    def test_non_transient_fault_is_not_retried(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        session.kernel.fault_injector = faults
        faults.arm("kernel.before_charge", times=3, transient=False)
        policy = RetryPolicy(max_attempts=5, base_delay=0.0, jitter=0.0)
        with pytest.raises(InjectedFault):
            scheduler.execute_with_retry(identity_request(session), policy)
        # Only one attempt was made.
        assert len(session.events) == 1

    def test_attempts_are_bounded(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        session.kernel.fault_injector = faults
        faults.arm("kernel.before_charge", times=100)
        policy = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)
        with pytest.raises(InjectedFault):
            scheduler.execute_with_retry(identity_request(session), policy)
        assert len(session.events) == 3
        assert session.budget_consumed() == 0.0
        assert reconcile(session)["exact"]

    def test_backoff_delays_grow_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, backoff=2.0, max_delay=0.5, jitter=0.0)
        rng = policy.rng()
        delays = [policy.delay(k, rng) for k in range(1, 6)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])
        jittered = RetryPolicy(base_delay=0.1, jitter=0.5, seed=1)
        rng = jittered.rng()
        assert all(0.05 <= jittered.delay(1, rng) <= 0.15 for _ in range(20))


# ======================================================================
# Request-path order.
# ======================================================================
def _held_elsewhere(lock) -> bool:
    """Whether ``lock`` is held, probed from a fresh thread (an RLock always
    lets its owning thread back in)."""
    acquired = []

    def probe():
        got = lock.acquire(blocking=False)
        if got:
            lock.release()
        acquired.append(got)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join(timeout=5)
    return acquired == [False]


class TestRequestPathOrder:
    """The fixed order of one request: worker fault seam → closed check →
    session lock → root span → deadline check → cache probe → plan run, then
    the journal commit after the root span closes, still under the lock."""

    def test_worker_seam_fires_before_the_closed_check(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, fault_injector=faults)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        session.begin_close()
        faults.arm("scheduler.worker", times=1)
        with pytest.raises(InjectedFault):
            scheduler.execute(identity_request(session))
        with pytest.raises(SessionClosedError):
            scheduler.execute(identity_request(session))
        assert [fired.point for fired in faults.fired] == ["scheduler.worker"]
        assert session.events == []

    def test_closed_rejection_is_neither_counted_nor_committed(self, manager, relation):
        scheduler = PlanScheduler(manager)
        journal = PrivacyJournal(None)
        session = manager.create_session("acme", relation, 4.0, seed=0, journal=journal)
        records = len(journal)
        session.begin_close()
        with pytest.raises(SessionClosedError):
            scheduler.execute(identity_request(session))
        snapshot = scheduler.metrics.snapshot()
        assert not any(key.startswith("service_requests") for key in snapshot["counters"])
        assert not any(
            key.startswith("service_journal_commit_seconds") for key in snapshot["histograms"]
        )
        assert len(journal) == records
        assert scheduler.metrics.privacy_odometer() == {}

    def test_deadline_is_checked_before_the_cache_probe(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        scheduler.execute(identity_request(session))
        probes = scheduler.measurement_cache.stats
        # Same query, so a probe would hit; the expired deadline wins first.
        with pytest.raises(DeadlineExceededError):
            scheduler.execute(identity_request(session, deadline_seconds=0.0))
        stats = scheduler.measurement_cache.stats
        assert (stats["hits"], stats["misses"]) == (probes["hits"], probes["misses"])
        event = session.events[-1]
        assert event.error == "DeadlineExceededError" and not event.cached
        assert session.budget_consumed() == pytest.approx(0.1)
        assert reconcile(session)["exact"]

    @pytest.mark.parametrize("fails", [False, True], ids=["answered", "failed"])
    def test_journal_commits_after_the_root_span_under_the_lock(
        self, manager, relation, fails
    ):
        tracer = Tracer()
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, tracer=tracer)
        journal = PrivacyJournal(None)
        session = manager.create_session("acme", relation, 4.0, seed=0, journal=journal)
        session.kernel.fault_injector = faults
        commits = []
        original_commit = journal.commit

        def commit():
            finished = [span for span in tracer.spans() if span.name == "service.request"]
            commits.append((tracer.current_span(), finished, _held_elsewhere(session.lock)))
            original_commit()

        journal.commit = commit
        if fails:
            faults.arm("kernel.before_charge", times=1)
            with pytest.raises(InjectedFault):
                scheduler.execute(identity_request(session))
        else:
            scheduler.execute(identity_request(session))
        ((open_span, finished, held),) = commits
        assert open_span is None  # the root span had closed ...
        (root,) = finished  # ... and was recorded, with its final status
        assert root.status == ("error" if fails else "ok")
        assert root.trace_id == session.events[-1].trace_id
        assert held  # ... while the session lock was still held

    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
    def test_run_locked_runs_under_the_lock_inside_the_root_span(
        self, manager, relation, traced
    ):
        tracer = Tracer() if traced else None
        scheduler = PlanScheduler(manager, tracer=tracer)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        calls = []
        original_run = scheduler._run_locked

        def spy(session_, request, queued_at, root):
            active = tracer.current_span() if traced else None
            calls.append((root, active, _held_elsewhere(session_.lock)))
            return original_run(session_, request, queued_at, root)

        scheduler._run_locked = spy
        response = scheduler.execute(identity_request(session))
        ((root, active, held),) = calls
        assert held
        if traced:
            assert root is active and root.name == "service.request"
            assert response.trace_id == root.trace_id == session.events[-1].trace_id
        else:
            assert root is NOOP_SPAN
            assert response.trace_id is None and session.events[-1].trace_id is None


# ======================================================================
# Property suite: random fault schedules.
# ======================================================================
_FAULT_CHOICES = st.sampled_from(
    [
        ("kernel.before_charge", "fault"),
        ("kernel.after_charge", "fault"),
        ("kernel.after_charge", "death"),
        ("journal.fsync", "oserror"),
        ("scheduler.worker", "death"),
    ]
)


@st.composite
def fault_schedules(draw):
    """A handful of independent fault arms with random skip counts."""
    arms = draw(st.lists(_FAULT_CHOICES, min_size=0, max_size=3))
    return [(point, mode, draw(st.integers(0, 4))) for point, mode in arms]


def _property_relation():
    """Fixture-free relation for hypothesis tests (function-scoped fixtures
    are not reset between generated inputs)."""
    histogram = np.random.default_rng(7).integers(0, 40, N).astype(float)
    return Relation.from_histogram(Schema.build([Attribute("v", N)]), histogram)


class TestCrashRecoveryProperties:
    @settings(max_examples=20, deadline=None)
    @given(schedule=fault_schedules(), num_requests=st.integers(1, 4))
    def test_restore_reconciles_exactly_under_any_fault_schedule(
        self, tmp_path_factory, schedule, num_requests
    ):
        relation = _property_relation()
        path = tmp_path_factory.mktemp("wal") / "j.wal"
        faults = FaultInjector()
        journal = PrivacyJournal(path, fsync="always", fault_injector=faults)
        manager = SessionManager()
        scheduler = PlanScheduler(manager, max_workers=1, fault_injector=faults)
        session = manager.create_session(
            "acme", relation, 8.0, seed=11, journal=journal
        )
        session.kernel.fault_injector = faults
        # Arm only after the session is open so every fault lands inside a
        # request (hit counts start at arm time).
        for point, mode, after in schedule:
            exception = None
            if mode == "death":
                exception = WorkerDeath(point)
            elif mode == "oserror":
                exception = OSError(f"injected at {point}")
            faults.arm(point, after=after, exception=exception)

        requests = [
            dawa_request(session, epsilon=0.2)
            if i % 2
            else identity_request(session, epsilon=0.1 * (i + 1))
            for i in range(num_requests)
        ]
        results = scheduler.execute_batch(requests, return_exceptions=True)
        scheduler.shutdown()
        # Whatever the schedule did, the *live* session must reconcile (the
        # batch collector claims worker-death orphans).
        assert reconcile(session)["exact"]
        live_consumed = session.budget_consumed()
        journal.close()

        # The crash: a brand-new process restores from the journal alone.
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=PrivacyJournal(path))
        assert reconcile(restored)["exact"]
        assert restored.budget_consumed() == pytest.approx(live_consumed, abs=1e-9)
        # The audit covers the sources DAWA derived before the crash.
        assert json.loads(export_json(restored))["num_requests"] == len(restored.events)

        # Every answer released pre-crash replays byte-identical at zero ε.
        spent_before = restored.budget_consumed()
        for request, result in zip(requests, results):
            if isinstance(result, BaseException) or result.cached:
                continue
            replay = fresh.execute(
                replace(request, session_id=restored.session_id, request_id=None)
            )
            assert replay.cached
            assert replay.x_hat.tobytes() == result.x_hat.tobytes()
        assert restored.budget_consumed() == spent_before
        assert reconcile(restored)["exact"]

    @settings(max_examples=10, deadline=None)
    @given(cut=st.integers(1, 200))
    def test_truncated_journal_tail_still_restores_consistently(
        self, tmp_path_factory, cut
    ):
        """Losing an arbitrary tail of the journal never breaks exactness."""
        relation = _property_relation()
        path = tmp_path_factory.mktemp("wal") / "j.wal"
        journal = PrivacyJournal(path)
        manager = SessionManager()
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 8.0, seed=5, journal=journal
        )
        for i in range(3):
            scheduler.execute(identity_request(session, epsilon=0.1 * (i + 1)))
        journal.close()

        raw = path.read_bytes()
        # Keep at least the open record (its line ends at the first newline).
        head = raw.find(b"\n") + 1
        truncated = raw[: max(head, len(raw) - cut)]
        path.write_bytes(truncated)

        restored = PlanScheduler(SessionManager()).restore_session(
            relation, journal=PrivacyJournal(path)
        )
        # Prefix durability: whatever survived reconciles exactly, and spend
        # never exceeds what was actually charged pre-crash.
        assert reconcile(restored)["exact"]
        assert restored.budget_consumed() <= session.budget_consumed() + 1e-9
