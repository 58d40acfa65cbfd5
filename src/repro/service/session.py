"""Per-tenant sessions and the manager that owns them.

A :class:`Session` is the service-side wrapper around one
:class:`~repro.private.kernel.ProtectedKernel`: it owns the kernel, the root
handle, a lazily-vectorised source plans run against, a re-entrant lock that
serialises all budget-spending work on the kernel, and an append-only audit
trail of :class:`SessionEvent` records (one per scheduled request).

Sessions can be made **durable** by attaching a
:class:`~repro.durability.PrivacyJournal`: every accepted budget charge,
every kernel measurement record and every audit-trail event is appended to
the journal the instant it happens — charges *before* the in-memory ledger
mutates — so a crash at any instruction loses at most budget, never
accounting integrity.  The records are built in
:mod:`repro.durability.snapshot`, whose ``snapshot_session`` builds the same
records from a live session and whose ``restore_session`` replays either.

The :class:`SessionManager` creates and tracks sessions.  Isolation is
structural: every session has its own kernel, its own budget tracker and its
own lock, so concurrent work on different sessions can never cross budgets.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from ..accounting import Accountant, make_accountant
from ..dataset.relation import Relation
from ..durability.snapshot import (
    charge_record,
    event_record,
    measurement_record,
    open_record,
)
from ..private.budget import LEDGER_TOLERANCE
from ..private.kernel import BudgetSnapshot, MeasurementRecord, ProtectedKernel
from ..private.protected import ProtectedDataSource

#: Process-wide counter making every Session object distinguishable even when
#: a session id is reused after a close (cache entries must never cross).
_CACHE_SCOPES = itertools.count(1)


@dataclass(frozen=True)
class SessionEvent:
    """One audit-trail entry: what a scheduled request did to the session."""

    request_id: str
    plan: str
    workload: str | None
    epsilon_requested: float
    epsilon_spent: float
    cached: bool
    seed: int | None
    #: history indices [start, end) of the kernel measurements this request
    #: produced (an empty span for cache hits).
    history_start: int
    history_end: int
    tag: str = ""
    #: exception type name when the plan failed mid-execution ("" on success);
    #: the event still claims whatever budget/history the partial run produced.
    error: str = ""
    #: wall-clock seconds the request spent executing under the session lock
    #: (cache hits included — replay time is real latency too).
    duration_seconds: float = 0.0
    #: seconds between the request being scheduled (batch submission or
    #: ``execute`` entry) and execution starting — lock contention plus
    #: thread-pool queueing.
    queue_wait_seconds: float = 0.0
    #: trace id of the request's span tree when tracing was enabled, else None.
    trace_id: str | None = None


class Session:
    """One tenant-facing handle to a protected kernel with its own ledger."""

    def __init__(
        self,
        session_id: str,
        tenant: str,
        table: Relation,
        epsilon_total: float,
        seed: int | None = None,
        accountant: str | Accountant | None = None,
        delta: float = 1e-6,
    ):
        self.session_id = session_id
        self.tenant = tenant
        #: base seed all per-request seeds are derived from.  When the caller
        #: does not pin one, it is drawn from OS entropy so an outside
        #: observer cannot reconstruct (and subtract) the noise from the
        #: public seed-derivation inputs; pass an explicit seed to make every
        #: response of the session reproducible.
        self.base_seed = (
            int(np.random.SeedSequence().entropy) if seed is None else int(seed)
        )
        #: the (ε, δ) target the session was *requested* with — the
        #: accountant's constructor arguments, which the ``open`` record holds
        #: so a restore can rebuild an identical accountant
        #: (``epsilon_total`` is ε even for a zCDP session whose native
        #: budget is ρ).
        self.requested_epsilon_total = float(epsilon_total)
        self.requested_delta = float(delta)
        #: per-tenant privacy calculus: ``None``/``"pure"`` is the paper's
        #: ε-DP; ``"approx"``/``"zcdp"`` resolve against the tenant's
        #: ``(epsilon_total, delta)`` target; an Accountant instance is used
        #: as-is (its own budget wins over ``epsilon_total``).
        self.accountant = make_accountant(accountant, epsilon_total, delta=delta)
        self.kernel = ProtectedKernel(
            table, epsilon_total, seed=self.base_seed, accountant=self.accountant
        )
        #: opaque scope token distinguishing this Session object from any
        #: earlier one that carried the same session id (cache isolation).
        self.cache_scope = next(_CACHE_SCOPES)
        self.lock = threading.RLock()
        self.events: list[SessionEvent] = []
        self._root = ProtectedDataSource(self.kernel, "root")
        self._vector: ProtectedDataSource | None = None
        #: number of request ids handed out so far (mutated only under the
        #: session lock; a restore takes it from the replayed events).
        self.request_counter = 0
        #: durable write-ahead journal; None until :meth:`attach_journal`.
        self.journal = None
        #: populated by :func:`repro.durability.restore_session` on a
        #: restored session (replayed record count, orphan event, reconcile).
        self.recovery_info: dict | None = None
        self._closing = False
        self._closed = False

    # ------------------------------------------------------------------
    # Handles.
    # ------------------------------------------------------------------
    @property
    def root(self) -> ProtectedDataSource:
        """The root table handle."""
        return self._root

    def vector_source(self) -> ProtectedDataSource:
        """The session's vectorised source (built once, then shared).

        Sharing one handle means all measurements compose sequentially on the
        same lineage — exactly the ledger a tenant expects.
        """
        with self.lock:
            if self._vector is None:
                self._vector = self._root.vectorize()
            return self._vector

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------
    @property
    def epsilon_total(self) -> float:
        return self.kernel.epsilon_total

    def budget_consumed(self) -> float:
        return self.kernel.budget_consumed()

    def budget_remaining(self) -> float:
        return self.kernel.budget_remaining()

    def budget_snapshot(self) -> BudgetSnapshot:
        return self.kernel.budget_snapshot()

    def accounting_report(self) -> dict:
        """Spend in the accountant's native units plus converted ``(ε, δ)``.

        Budget counters (``budget_consumed`` / ``epsilon_spent`` on events)
        are native units — bare ε for pure/approximate DP, ρ for zCDP; this
        report is where a zCDP session's spend becomes a quotable DP
        statement for audits and client dashboards.
        """
        return self.kernel.accounting_report()

    def next_request_id(self) -> str:
        """Sequential request ids; also the anchor of per-request seeding."""
        with self.lock:
            self.request_counter += 1
            return f"{self.session_id}-r{self.request_counter}"

    def record(self, event: SessionEvent) -> None:
        """Append one audit-trail event, journal-first when durable."""
        with self.lock:
            if self.journal is not None:
                self.journal.append(event_record(event))
            self.events.append(event)

    def measurements_for(self, event: SessionEvent) -> list[MeasurementRecord]:
        """The kernel history records produced by one audit-trail event."""
        return self.kernel.history()[event.history_start : event.history_end]

    # ------------------------------------------------------------------
    # Durability.
    # ------------------------------------------------------------------
    def attach_journal(self, journal, write_open: bool = True) -> None:
        """Mirror all privacy-relevant state changes into ``journal``.

        Wires the write-ahead hooks: accepted root-level budget charges are
        appended *before* the in-memory ledger mutates (an append failure
        aborts the charge; a crash right after it merely wastes the charged
        budget), measurement records before the noisy answer is returned,
        audit events before they land on :attr:`events`.  ``write_open``
        stamps the session's opening metadata so the journal alone suffices
        to rebuild the session (restores pass ``False``: their journal
        already has it).
        """
        with self.lock:
            self.journal = journal
            tracker = self.kernel.budget_tracker
            tracker.charge_listener = lambda cost: journal.append(charge_record(cost))
            self.kernel.measurement_listener = lambda record: journal.append(
                measurement_record(record)
            )
            if write_open:
                journal.append(open_record(self))
                journal.commit()

    def detach_journal(self) -> None:
        """Stop journaling (the journal itself is left to the caller)."""
        with self.lock:
            self.kernel.budget_tracker.charge_listener = None
            self.kernel.measurement_listener = None
            self.journal = None

    def claim_orphans(self, error: str = "WorkerDeath") -> list[SessionEvent]:
        """Ledger budget/history a dead request charged but never recorded.

        A worker that dies mid-request (or a crash inside the charge-ahead
        window) leaves kernel-side spend and history rows no audit event
        claims, so :func:`~repro.service.export.reconcile` would flag the
        session forever.  This synthesizes errored events claiming exactly
        the unclaimed history rows — one event per contiguous run, since a
        dead request's rows can be a *hole* when later requests completed
        after it — restoring the one-event-per-charge invariant.  Each run
        is priced from the kernel's own per-record costs; any residual
        spend with no history row at all (a death between charge and
        record, the charge-ahead window) rides on the last event.  Returns
        the synthesized events (empty when the ledgers already balance).
        """
        with self.lock:
            history = self.kernel.history()
            num_records = len(history)
            claimed = set()
            for event in self.events:
                if not event.cached:
                    claimed.update(range(event.history_start, event.history_end))
            unclaimed = [i for i in range(num_records) if i not in claimed]
            orphan_spend = self.kernel.budget_consumed() - math.fsum(
                event.epsilon_spent for event in self.events
            )
            if orphan_spend <= LEDGER_TOLERANCE and not unclaimed:
                return []
            # Contiguous runs of unclaimed indices, e.g. [1, 2, 5] -> [1,3), [5,6).
            runs: list[list[int]] = []
            for index in unclaimed:
                if runs and index == runs[-1][1]:
                    runs[-1][1] = index + 1
                else:
                    runs.append([index, index + 1])
            if not runs:
                # Spend with no history row: claim it on an empty tail span.
                runs.append([num_records, num_records])
            recorded = math.fsum(
                history[i].cost for run in runs for i in range(run[0], run[1])
            )
            residual = max(orphan_spend - recorded, 0.0)
            events = []
            for k, (start, end) in enumerate(runs):
                spend = math.fsum(history[i].cost for i in range(start, end))
                if k == len(runs) - 1:
                    spend += residual
                event = SessionEvent(
                    request_id=self.next_request_id(),
                    plan="(orphaned)",
                    workload=None,
                    epsilon_requested=0.0,
                    epsilon_spent=spend,
                    cached=False,
                    seed=None,
                    history_start=start,
                    history_end=end,
                    error=error,
                )
                self.record(event)
                events.append(event)
            return events

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def closing(self) -> bool:
        """True once a close has begun: new requests must be rejected."""
        return self._closing or self._closed

    def begin_close(self) -> None:
        """Stop admitting new requests (in-flight work may still drain)."""
        self._closing = True

    def close(self) -> None:
        self._closing = True
        self._closed = True
        if self.journal is not None:
            self.journal.commit()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Session({self.session_id!r}, tenant={self.tenant!r}, "
            f"consumed={self.budget_consumed():.3g}/{self.epsilon_total:g})"
        )


class SessionManager:
    """Creates, indexes and closes sessions; the service's tenant directory."""

    def __init__(self):
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)

    def create_session(
        self,
        tenant: str,
        table: Relation,
        epsilon_total: float,
        seed: int | None = None,
        session_id: str | None = None,
        accountant: str | Accountant | None = None,
        delta: float = 1e-6,
        journal=None,
    ) -> Session:
        """Open a session for ``tenant`` around a fresh protected kernel.

        ``accountant`` picks the tenant's privacy calculus (``"pure"``,
        ``"approx"``, ``"zcdp"`` or an :class:`~repro.accounting.Accountant`
        instance); ``delta`` is the δ of the tenant's ``(ε, δ)`` target for
        the non-pure accountants.  ``journal`` attaches a
        :class:`~repro.durability.PrivacyJournal` making the session
        crash-safe from its very first charge.
        """
        with self._lock:
            if session_id is None:
                session_id = f"{tenant}-s{next(self._counter)}"
            if session_id in self._sessions:
                raise ValueError(f"session {session_id!r} already exists")
            session = Session(
                session_id,
                tenant,
                table,
                epsilon_total,
                seed=seed,
                accountant=accountant,
                delta=delta,
            )
            self._sessions[session_id] = session
        if journal is not None:
            session.attach_journal(journal)
        return session

    def adopt(self, session: Session) -> Session:
        """Index an externally-built session (the restore path)."""
        with self._lock:
            if session.session_id in self._sessions:
                raise ValueError(
                    f"session {session.session_id!r} already exists; close it "
                    "before adopting a restored replacement"
                )
            self._sessions[session.session_id] = session
        return session

    def get(self, session_id: str) -> Session:
        with self._lock:
            if session_id not in self._sessions:
                raise KeyError(f"unknown session {session_id!r}")
            return self._sessions[session_id]

    def close(self, session_id: str, drain: bool = True, timeout: float | None = None) -> Session:
        """Close and drop a session; its kernel (and budget ledger) survives
        on the returned object for final auditing.

        Closing a session with requests in flight is well-defined:

        * the session stops admitting new requests immediately (they raise
          :class:`~repro.service.robustness.SessionClosedError`, un-ledgered
          — they never touched the session);
        * with ``drain=True`` (the default) the close then waits for the
          session lock, i.e. for every in-flight request to finish and be
          ledgered, before marking the session closed — the returned ledger
          is final and reconciles;
        * with ``drain=False`` the session is marked closed without waiting;
          an in-flight request still completes and is ledgered (it already
          held the lock), but the caller gets the session back immediately.

        ``timeout`` bounds the drain wait in seconds; on expiry the session
        is closed without further waiting (as if ``drain=False``).
        """
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise KeyError(f"unknown session {session_id!r}")
        # Reject new work first, then drain: requests that arrive after this
        # line never execute, so the lock wait below is bounded by work that
        # was already in flight.
        session.begin_close()
        if drain:
            acquired = session.lock.acquire(
                timeout=-1 if timeout is None else timeout
            )
            try:
                session.close()
            finally:
                if acquired:
                    session.lock.release()
        else:
            session.close()
        with self._lock:
            self._sessions.pop(session_id, None)
        return session

    def sessions(self) -> list[Session]:
        with self._lock:
            return list(self._sessions.values())

    def for_tenant(self, tenant: str) -> list[Session]:
        return [session for session in self.sessions() if session.tenant == tenant]

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions
