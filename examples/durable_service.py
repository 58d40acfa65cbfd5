"""Durability demo: journaled session, mid-request crash, exact recovery.

This example walks the crash-safety path end to end:

1. open a session with a :class:`~repro.durability.PrivacyJournal`
   attached, and answer a couple of requests normally — each one appends
   one ``commit`` record (its charges, measurement rows, release and audit
   event) before its response leaves the service,
2. kill the process mid-request with the fault-injection harness — a
   ``WorkerDeath`` fired *between* a budget charge and the measurement that
   would have recorded it.  The dying request's commit still runs on its
   way out, so the journal holds the charge with no event behind it; the
   rest of the in-memory state dies with the process,
3. throw the live objects away — only the journal file survives — and
   restore the session into a fresh scheduler from the journal alone,
4. verify the recovered state: the orphaned charge is claimed by a
   synthesized audit event, the event ledger reconciles **exactly** against
   the kernel's own ledger, and no budget was double-spent or leaked,
5. re-ask a pre-crash question — the answer replays from the journal's
   release records byte-identically, at zero additional epsilon,
6. move the session to another scheduler: drain-close it, attach a fresh
   journal (which writes the whole session as one record) and restore that
   journal on the target, where the pre-crash answer replays free again.

The invariant being demonstrated: a crash can *waste* privacy budget (the
orphaned charge bought nothing), but it can never *leak* it — every unit of
epsilon the kernel ever charged is accounted for in the audit trail.

Run:  python examples/durable_service.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.dataset import Attribute, Relation, Schema
from repro.durability import FaultInjector, PrivacyJournal, WorkerDeath
from repro.service import PlanScheduler, QueryRequest, SessionManager

N = 256


def histogram_relation(values: np.ndarray) -> Relation:
    schema = Schema.build([Attribute("income", len(values))])
    return Relation.from_histogram(schema, np.asarray(values, dtype=np.float64))


def main() -> None:
    rng = np.random.default_rng(3)
    relation = histogram_relation(rng.integers(0, 500, size=N))
    wal = Path(tempfile.mkdtemp(prefix="durable-service-")) / "acme.wal"

    # ------------------------------------------------------------------
    # 1. A journaled session doing normal work.
    # ------------------------------------------------------------------
    manager = SessionManager()
    scheduler = PlanScheduler(manager)
    journal = PrivacyJournal(wal, fsync="commit")
    session = manager.create_session(
        "acme", relation, epsilon_total=1.0, seed=7, journal=journal
    )
    print(f"session {session.session_id} journaling to {wal}\n")

    cdf = scheduler.execute(
        QueryRequest(session.session_id, plan="Hierarchical (H2)", epsilon=0.2,
                     workload="prefix", workload_params={"n": N}, tag="cdf")
    )
    counts = scheduler.execute(
        QueryRequest(session.session_id, plan="Identity", epsilon=0.1, tag="counts")
    )
    for response in (cdf, counts):
        print(f"  {response.plan:<18} eps_spent={response.epsilon_spent:.3f}")

    # ------------------------------------------------------------------
    # 2. Kill the worker mid-request.  DAWA charges the budget twice (once
    #    for its private partition selection, once for the measurement);
    #    dying after the second charge is accepted leaves epsilon charged
    #    with no measurement or audit event behind it, and the request's
    #    commit journals exactly that on the way out.
    # ------------------------------------------------------------------
    faults = FaultInjector()
    session.kernel.fault_injector = faults
    faults.arm("kernel.after_charge", after=1, exception=WorkerDeath("kicked the power cable"))
    try:
        scheduler.execute(
            QueryRequest(session.session_id, plan="DAWA", epsilon=0.4,
                         workload="prefix", workload_params={"n": N}, tag="doomed")
        )
        raise AssertionError("the injected crash did not fire")
    except WorkerDeath:
        pre_crash = session.budget_consumed()
        print(
            f"\ncrash mid-DAWA: kernel ledger at {pre_crash:.3f} eps, "
            f"audit trail covers only "
            f"{sum(e.epsilon_spent for e in session.events):.3f} eps"
        )

    # Everything in memory dies with the process; only the WAL survives.
    del manager, scheduler, session, journal

    # ------------------------------------------------------------------
    # 3. Restore from the journal alone into a fresh service.  The private
    #    table is never journaled — the operator supplies it at restore.
    # ------------------------------------------------------------------
    fresh = PlanScheduler(SessionManager())
    restored = fresh.restore_session(relation, journal=PrivacyJournal(wal))
    info = restored.recovery_info
    print(
        f"\nrestored {info['replayed_records']} charge, measurement, release and "
        f"event records from the journal alone; "
        f"reconcile exact={info['reconcile']['exact']}"
    )

    # ------------------------------------------------------------------
    # 4. The orphaned charge was claimed, not lost: a synthesized audit
    #    event covers exactly the epsilon the doomed request charged.
    # ------------------------------------------------------------------
    (orphan,) = info["orphaned_events"]
    print(
        f"orphan claimed: plan={orphan['plan']} error={orphan['error']} "
        f"eps={orphan['epsilon_spent']:.3f}"
    )
    assert abs(restored.budget_consumed() - pre_crash) < 1e-9
    print(
        f"budget after recovery: {restored.budget_consumed():.3f} eps "
        f"(matches the pre-crash kernel ledger exactly)"
    )

    # ------------------------------------------------------------------
    # 5. Pre-crash answers replay from the journal at zero epsilon.
    # ------------------------------------------------------------------
    replay = fresh.execute(
        QueryRequest(restored.session_id, plan="Hierarchical (H2)", epsilon=0.2,
                     workload="prefix", workload_params={"n": N}, tag="cdf again")
    )
    assert replay.cached and replay.epsilon_spent == 0.0
    assert np.array_equal(replay.answers, cdf.answers)
    print(
        f"\nreplay of the pre-crash CDF: cached={replay.cached}, "
        f"eps_spent={replay.epsilon_spent}, answers byte-identical="
        f"{np.array_equal(replay.answers, cdf.answers)}"
    )

    # ------------------------------------------------------------------
    # 6. Move the session: drain-close it, then restore its journal on
    #    another scheduler.  Attaching a fresh journal writes the whole
    #    session, ledger, history, releases and audit trail, as one commit
    #    record, so the move also compacts the journal (a session without
    #    a journal is moved the same way).
    # ------------------------------------------------------------------
    restored.begin_close()  # no new requests; in-flight ones drain first
    fresh.manager.close(restored.session_id)
    file_records = len(restored.journal)
    compacted = PrivacyJournal(None)
    restored.attach_journal(compacted)
    target = PlanScheduler(SessionManager())
    moved = target.restore_session(relation, compacted)
    moved_records = len(compacted)
    assert moved.budget_consumed() == restored.budget_consumed()
    again = target.execute(
        QueryRequest(moved.session_id, plan="Hierarchical (H2)", epsilon=0.2,
                     workload="prefix", workload_params={"n": N}, tag="cdf, moved")
    )
    assert again.cached and again.epsilon_spent == 0.0
    assert np.array_equal(again.answers, cdf.answers)
    print(
        f"\nmoved {moved.session_id} through a {moved_records}-record journal "
        f"(the file journal holds {file_records}); budget "
        f"{moved.budget_consumed():.3f} eps, CDF replays free: {again.cached}"
    )


if __name__ == "__main__":
    main()
