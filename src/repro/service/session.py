"""Per-tenant sessions and the manager that owns them.

A :class:`Session` is the service-side wrapper around one
:class:`~repro.private.kernel.ProtectedKernel`: it owns the kernel, the root
handle, a lazily-vectorised source plans run against, a re-entrant lock that
serialises all budget-spending work on the kernel, an append-only audit
trail of :class:`SessionEvent` records (one per scheduled request) and its
**releases**: each answer it released, by request key, as a
:class:`CachedAnswer` holding only what a replay hands out — the arrays,
the noise seed and the plan's ``info`` — beside its key and history span.
Handing a released answer out again is post-processing, so an identical
request replays it at zero ε; the history span on each release points back
at the kernel rows that paid for it.

Sessions are made **durable** by attaching a
:class:`~repro.durability.PrivacyJournal` (:meth:`Session.attach_journal`),
which writes the session's whole state so far; from then on
:meth:`Session.commit` writes one ``commit`` record per request, holding its
charges, history rows, release and audit event, before its response or a
replayed answer leaves the session lock.  A crash before the commit loses
only charges whose answer nobody saw.  The journal is the session's one
durable form: a restore from it rebuilds the session, here or on another
manager.  The records are built in :mod:`repro.durability.records`, which
also restores them.

The :class:`SessionManager` creates and tracks sessions.  Isolation is
structural: every session has its own kernel, budget tracker, lock and
releases, so concurrent work on different sessions can never cross budgets,
and no session's traffic can evict or reach another's releases.  A session's
releases live and die with its object: a closed session id reused later
starts with none.

The request metrics are the audit trail folded into a
:class:`RequestTally` per tenant (:meth:`SessionManager.request_tallies`).
"""

from __future__ import annotations

import copy
import itertools
import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from ..accounting import make_accountant
from ..accounting.base import add_exact
from ..dataset.relation import Relation
from ..durability.records import open_record, pack_commit
from ..private.kernel import BudgetSnapshot, ProtectedKernel
from ..private.protected import ProtectedDataSource
from ..telemetry.metrics import Histogram


class SessionClosedError(RuntimeError):
    """A request that raced a session close; the session's ledger is final
    (see :meth:`SessionManager.close`)."""


@dataclass(frozen=True)
class SessionEvent:
    """One audit-trail entry: what a scheduled request did to the session."""

    request_id: str
    plan: str
    workload: str | None
    epsilon_requested: float
    epsilon_spent: float
    #: how the request ended: ``ok``, ``cached`` (a replay), ``rejected``
    #: (refused before any spend) or ``error``.
    outcome: str
    seed: int | None
    #: history indices [start, end) of the kernel measurements this request
    #: produced (an empty span for replays).
    history_start: int
    history_end: int
    tag: str = ""
    #: exception type name when the plan failed mid-execution ("" on success);
    #: the event still claims whatever budget/history the partial run produced.
    error: str = ""
    #: wall-clock seconds the request spent executing under the session lock
    #: (replays included — replay time is real latency too).
    duration_seconds: float = 0.0
    #: seconds between the request being scheduled (batch submission or
    #: ``execute`` entry) and execution starting — lock contention plus
    #: thread-pool queueing.
    queue_wait_seconds: float = 0.0
    #: trace id of the request's span tree when tracing was enabled, else None.
    trace_id: str | None = None

    @property
    def cached(self) -> bool:
        """True for a replay."""
        return self.outcome == "cached"


@dataclass
class CachedAnswer:
    """One released answer: what a replay of the request ``key`` hands out
    (its estimate, workload answers, noise seed and the plan's ``info``)
    and the kernel-history span [start, end) that paid for it.  The
    scheduler builds it from the plan's result and copies it into every
    response, so nothing a client holds reaches it."""

    key: tuple
    x_hat: np.ndarray
    answers: np.ndarray | None
    seed: int | None
    info: dict
    history_start: int
    history_end: int


#: The request histograms, by the event field each observes.
_TIMINGS = {
    "service_request_latency_seconds": "duration_seconds",
    "service_request_queue_wait_seconds": "queue_wait_seconds",
}


class RequestTally:
    """One tenant's audit events, folded into what the request metrics read:
    requests per (plan, outcome), spend per plan in the accountant's native
    ``unit`` and the :data:`_TIMINGS` histograms.  Sums are kept exact, so a
    tally exports ``math.fsum`` over every event folded in."""

    def __init__(self, unit: str):
        self.unit = unit
        self.requests: dict[tuple[str, str], int] = {}
        #: exact partials of the spend, per plan.
        self.spent: dict[str, list[float]] = {}
        #: each histogram with the exact partials of its sum.
        self.timings = {name: (Histogram(name), []) for name in _TIMINGS}

    def add(self, events) -> None:
        for event in events:
            key = (event.plan, event.outcome)
            self.requests[key] = self.requests.get(key, 0) + 1
            add_exact(self.spent.setdefault(event.plan, []), event.epsilon_spent)
            for name, (histogram, partials) in self.timings.items():
                value = getattr(event, _TIMINGS[name])
                histogram.observe(value)
                add_exact(partials, value)

    def histograms(self, tenant: str) -> list[Histogram]:
        """The histograms, labelled with ``tenant``, their sums exact."""
        return [
            replace(h, labels=(("tenant", tenant),), counts=list(h.counts), total=math.fsum(p))
            for h, p in self.timings.values()
        ]


class Session:
    """One tenant-facing handle to a protected kernel with its own ledger."""

    def __init__(
        self,
        session_id: str,
        tenant: str,
        table: Relation,
        epsilon_total: float,
        seed: int | None = None,
        accountant: str | None = None,
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
        #: ``(epsilon_total, delta)`` target.  Only a registry name: the
        #: ``open`` record holds nothing else to restore it from.
        self.accountant = make_accountant(accountant, epsilon_total, delta=delta)
        self.kernel = ProtectedKernel(
            table, epsilon_total, seed=self.base_seed, accountant=self.accountant
        )
        self.lock = threading.RLock()
        self.events: list[SessionEvent] = []
        #: released answers by request key (read and written under the lock).
        self.releases: dict[tuple, CachedAnswer] = {}
        self._root = ProtectedDataSource(self.kernel, "root")
        self._vector: ProtectedDataSource | None = None
        #: number of request ids handed out so far (mutated only under the
        #: session lock; a restore takes it from the replayed events).
        self.request_counter = 0
        #: durable journal; None until :meth:`attach_journal`.
        self.journal = None
        #: (root-ledger length, history length, event count) the last
        #: commit covered, and the releases made since.
        self._committed = (0, 0, 0)
        self.pending_releases: list[CachedAnswer] = []
        #: (root-ledger length, report) of the last accounting report.
        self._accounting: tuple[int, dict] = (-1, {})
        #: populated by :func:`repro.durability.restore_session` on a
        #: restored session (replayed record count, orphan events, reconcile).
        self.recovery_info: dict | None = None
        self._closing = False
        self._closed = False

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

    @property
    def ledger_slack(self) -> float:
        """Largest gap between the event ledger and the kernel's spend that
        counts as float rounding: 1e-9, scaled down with budgets below 1 (a
        zCDP ρ budget can be ~1e-8, where an absolute 1e-9 would hide a
        request's whole charge).  Orphan claims and ``reconcile`` share it."""
        return 1e-9 * min(1.0, self.epsilon_total)

    def accounting_report(self) -> dict:
        """Spend in the accountant's native units plus converted ``(ε, δ)``.

        Budget counters (``budget_consumed`` / ``epsilon_spent`` on events)
        are native units — bare ε for pure/approximate DP, ρ for zCDP; this
        report is where a zCDP session's spend becomes a quotable DP
        statement for audits and client dashboards.

        The spend changes only with the root ledger, so the report is
        computed again only when the ledger's length has changed; each
        caller gets its own copy.  The check runs under the session lock,
        which every charge holds: a report taken halfway through a charge
        would otherwise be kept under the new length.
        """
        with self.lock:
            length = self.kernel.budget_tracker.num_charges
            if self._accounting[0] != length:
                self._accounting = (length, self.kernel.accounting_report())
            return dict(self._accounting[1])

    def next_request_id(self) -> str:
        """Sequential request ids; also the anchor of per-request seeding."""
        with self.lock:
            self.request_counter += 1
            return f"{self.session_id}-r{self.request_counter}"

    def record(self, event: SessionEvent) -> None:
        """Append one audit-trail event (the next commit journals it)."""
        with self.lock:
            self.events.append(event)

    def release(self, entry: CachedAnswer) -> None:
        """Keep ``entry`` under its request key, as it is.  On a journaled
        session the next commit journals it, its arrays as raw bytes, so a
        restore replays it byte-identically."""
        with self.lock:
            self.releases[entry.key] = entry
            if self.journal is not None:
                self.pending_releases.append(entry)

    # ------------------------------------------------------------------
    # Durability.
    # ------------------------------------------------------------------
    def attach_journal(self, journal, write_open: bool = True) -> None:
        """Make ``journal`` this session's durable form: write the whole
        session into it, then journal every change from now on.

        The session's ``open`` record comes first, then, unless the session
        is fresh (no charge, history row, event or release), one ``commit``
        record of every charge, history row, release and event so far, so
        the journal alone rebuilds the session as it stands: attaching one
        to a live session makes it durable, and a new one moves or compacts
        it.  The journal must be empty: one that already holds records
        raises ``ValueError`` before anything is written (appending a second
        session would leave neither restorable).  ``write_open=False`` takes
        a journal that already holds the session (a restore's) and writes
        nothing.
        """
        with self.lock:
            if write_open:
                _require_empty(journal)
                journal.append(open_record(self))
                if any(self._marks()) or self.releases:
                    journal.append_packed(
                        "commit", *pack_commit(self, (0, 0, 0), self.releases.values())
                    )
                journal.commit()
            self.journal = journal
            self._committed = self._marks()
            self.pending_releases = []

    def _marks(self) -> tuple[int, int, int]:
        kernel = self.kernel
        return (kernel.budget_tracker.num_charges, kernel.num_measurements, len(self.events))

    def commit(self) -> None:
        """Append one ``commit`` record of everything changed since the last
        commit (if anything did), then flush per the journal's fsync mode.

        The marks advance only once the append succeeds, so a failed
        append's parts ride in the next commit, once.
        """
        with self.lock:
            journal = self.journal
            if journal is None:
                return
            marks = self._marks()
            if marks != self._committed or self.pending_releases:
                journal.append_packed(
                    "commit", *pack_commit(self, self._committed, self.pending_releases)
                )
                self._committed = marks
                self.pending_releases = []
            journal.commit()

    def claim_orphans(self, error: str = "WorkerDeath") -> list[SessionEvent]:
        """Ledger budget/history a dead request charged but never recorded.

        A worker that dies mid-request (or a crash between a charge and its
        event) leaves kernel-side spend and history rows no audit event
        claims, so :func:`~repro.service.export.reconcile` would flag the
        session forever.  This synthesizes errored events claiming exactly
        the unclaimed history rows — one event per contiguous run, since a
        dead request's rows can be a *hole* when later requests completed
        after it — restoring the one-event-per-charge invariant.  Each run
        is priced from the kernel's own per-record costs; any residual
        spend with no history row at all (a death between charge and
        record) rides on the last event.  Returns the synthesized events
        (empty when the ledgers already balance).
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
            if orphan_spend <= self.ledger_slack and not unclaimed:
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
                    outcome="error",
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
        """Mark the session closed and flush its journal, taking no lock: a
        request still in flight commits its own record when it finishes."""
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
        #: per-tenant tallies of the audit events of the sessions closed so far.
        self._closed: dict[str, RequestTally] = {}

    def create_session(
        self,
        tenant: str,
        table: Relation,
        epsilon_total: float,
        seed: int | None = None,
        session_id: str | None = None,
        accountant: str | None = None,
        delta: float = 1e-6,
        journal=None,
    ) -> Session:
        """Open a session for ``tenant`` around a fresh protected kernel.

        ``accountant`` names the tenant's privacy calculus: ``"pure"`` (or
        ``None``), ``"approx"`` or ``"zcdp"``; ``delta`` is the δ of the
        tenant's ``(ε, δ)`` target for the non-pure accountants.  An
        :class:`~repro.accounting.Accountant` instance raises ``KeyError``
        before any session exists, since a restore rebuilds the accountant
        from its name and target alone.  ``journal`` attaches a
        :class:`~repro.durability.PrivacyJournal` making the session
        crash-safe from its very first charge; one that already holds
        records raises ``ValueError`` before any session exists.
        """
        if journal is not None:
            _require_empty(journal)
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
          :class:`SessionClosedError`, un-ledgered
          — they never touched the session);
        * with ``drain=True`` (the default) the close then waits for the
          session lock, i.e. for every in-flight request to finish and be
          ledgered, before marking the session closed — the returned ledger
          is final and reconciles;
        * with ``drain=False`` the session is marked closed without waiting;
          an in-flight request still completes and is ledgered (it already
          held the lock), but the caller gets the session back immediately
          and the manager's request metrics miss that request's event.

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
            if self._sessions.pop(session_id, None) is session:
                _fold(self._closed, session, session.events)
        return session

    def sessions(self) -> list[Session]:
        with self._lock:
            return list(self._sessions.values())

    def request_tallies(self) -> dict[str, RequestTally]:
        """Per-tenant tallies of the audit events of every session this
        manager has held: the live ones, and those it closed."""
        with self._lock:
            tallies = copy.deepcopy(self._closed)
            sessions = list(self._sessions.values())
        for session in sessions:
            _fold(tallies, session, list(session.events))
        return tallies

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return session_id in self._sessions


def _require_empty(journal) -> None:
    """Refuse a journal that already holds records: a session's journal
    holds that session alone, from its ``open`` record on."""
    if len(journal):
        where = journal.path if journal.path is not None else "<memory>"
        raise ValueError(
            f"journal {where} already holds {len(journal)} records; a session "
            "attaches only an empty journal (restore_session reads one that "
            "holds a session)"
        )


def _fold(tallies: dict[str, RequestTally], session: Session, events: list) -> None:
    """Fold ``session``'s ``events`` into its tenant's tally in ``tallies``."""
    if events:
        if session.tenant not in tallies:
            unit = "rho" if session.accountant.name == "zcdp" else "epsilon"
            tallies[session.tenant] = RequestTally(unit)
        tallies[session.tenant].add(events)
