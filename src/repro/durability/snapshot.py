"""A session's durable records, its snapshot and its restore.

A session's durable state is one stream of **records**: JSON-ready dicts,
each with a ``kind``.  This module builds all five kinds:

* ``open`` — the session's opening metadata: id, tenant, base seed and the
  accountant's configuration;
* ``charge`` — one accepted root-level budget charge;
* ``measurement`` — one kernel history row;
* ``event`` — one audit-trail :class:`~repro.service.session.SessionEvent`;
* ``release`` — one released answer with its request key and the history
  span that paid for it (arrays as base64 of their raw buffer).

A journaled session appends them to its
:class:`~repro.durability.journal.PrivacyJournal` as they happen.  A
**snapshot** is the same records built from a live session's ledger,
history, audit trail and cached releases, as
``{"journal_seq": N, "records": [...]}`` taken at journal sequence number
``N``.  Neither ever contains the private table: restoring requires the
deployment to supply the original data, which stays the operator's.

**Restore** takes one path for a snapshot, a journal or both:

1. chain the snapshot's records and the journal's records past
   ``journal_seq`` into one stream;
2. build a fresh session around the supplied table from the stream's first
   record, its ``open`` record, verifying the reconstructed accountant
   matches the recorded configuration;
3. replay the rest — charges into the root ledger, measurement rows into the
   kernel history, events into the audit trail and the request counter,
   released answers back into the measurement cache (byte-identical);
4. attach the journal (without a second ``open`` record) and *claim
   orphans*: budget that was charged-ahead but whose request never recorded
   an event (the crash window) is claimed by one synthesized errored event,
   so the audit trail still covers every charge and every history row;
5. run the :func:`~repro.service.export.reconcile` oracle — the restored
   session's event ledger must match its kernel ledger *exactly*, or
   :class:`RecoveryError` is raised (``strict=False`` downgrades both this
   and the accountant check to best-effort for forensics on a journal you
   already know is damaged).

A restore rebuilds the root ledger, not the sources a plan derived before
it: the kernel's audit reports those by the history rows that name them.

The module imports the service layer lazily inside functions:
``repro.service`` imports ``repro.durability`` at module level, and this is
the edge that would otherwise close the cycle.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, fields as dataclass_fields
from typing import Iterable

from ..accounting.base import Cost
from ..private.kernel import MeasurementRecord
from .journal import PrivacyJournal
from .serialize import decode, encode

__all__ = [
    "RecoveryError",
    "charge_record",
    "event_record",
    "measurement_record",
    "open_record",
    "release_record",
    "response_from_state",
    "response_state",
    "restore_session",
    "snapshot_session",
]


class RecoveryError(Exception):
    """Restored state failed verification (accountant mismatch, inexact
    reconciliation, malformed snapshot/journal)."""


def response_state(response) -> dict:
    """A :class:`~repro.service.api.QueryResponse` as a plain field dict."""
    return {f.name: getattr(response, f.name) for f in dataclass_fields(response)}


def response_from_state(state: dict):
    """Invert :func:`response_state`."""
    from ..service.api import QueryResponse

    return _from_record(QueryResponse, state)


@functools.cache
def _field_names(cls) -> frozenset[str]:
    return frozenset(f.name for f in dataclass_fields(cls))


def _from_record(cls, record: dict):
    """Rebuild dataclass ``cls`` from a stored record, keeping only the
    class's own fields: journal framing (``seq``, ``kind``) and fields that
    older versions wrote but the class no longer has are dropped."""
    names = _field_names(cls)
    return cls(**{name: value for name, value in record.items() if name in names})


# ----------------------------------------------------------------------
# Records.
# ----------------------------------------------------------------------
def open_record(session) -> dict:
    """The session's opening metadata: enough to rebuild it around its table."""
    return {
        "kind": "open",
        "session_id": session.session_id,
        "tenant": session.tenant,
        "base_seed": session.base_seed,
        "epsilon_total": session.requested_epsilon_total,
        "delta": session.requested_delta,
        "accountant": session.accountant.name,
        "describe": session.accountant.describe(),
    }


def charge_record(cost: Cost) -> dict:
    """One accepted root-level charge, in native units."""
    return {"kind": "charge", "p": cost.primary, "d": cost.delta}


def measurement_record(record: MeasurementRecord) -> dict:
    """One kernel history row."""
    return {"kind": "measurement", **vars(record)}


def event_record(event) -> dict:
    """One audit-trail event."""
    # vars(), not asdict(): SessionEvent is flat scalars, and asdict's
    # recursive copying is measurable on the hot path.
    return {"kind": "event", **vars(event)}


def release_record(key: tuple, response, history_start: int, history_end: int) -> dict:
    """One released answer under its request key, with the history span
    [start, end) that paid for it."""
    return {
        "kind": "release",
        "key": encode(key),
        "response": encode(response_state(response)),
        "history_start": history_start,
        "history_end": history_end,
    }


# ----------------------------------------------------------------------
# Snapshot.
# ----------------------------------------------------------------------
def snapshot_session(session, measurement_cache=None) -> dict:
    """The session's durable state as records: ``{"journal_seq", "records"}``.

    Taken under the session lock, so the ledger, history, audit trail, cache
    contents and journal sequence number are one consistent cut.  Pass the
    scheduler's ``measurement_cache`` to include the session's released
    answers (restores replay them budget-free); without it the snapshot
    still reconciles, it just cannot serve pre-crash answers from cache.
    """
    with session.lock:
        records = [open_record(session)]
        records += map(charge_record, session.kernel.budget_tracker.ledger())
        records += map(measurement_record, session.kernel.history())
        records += map(event_record, session.events)
        if measurement_cache is not None:
            records += (
                release_record(**entry)
                for entry in measurement_cache.export_session(session)
            )
        return {
            "journal_seq": session.journal.seq if session.journal is not None else 0,
            "records": records,
        }


# ----------------------------------------------------------------------
# Restore.
# ----------------------------------------------------------------------
def _open_session(table, head: dict | None, strict: bool):
    """A session built from the record stream's first record, its ``open`` record."""
    from ..service.session import Session

    if head is None or head.get("kind") != "open":
        raise RecoveryError(
            "durable state has no 'open' record; restoring needs the "
            "session's opening metadata"
        )
    session = Session(
        head["session_id"],
        head["tenant"],
        table,
        head["epsilon_total"],
        seed=head["base_seed"],
        accountant=head["accountant"],
        delta=head["delta"],
    )
    if strict and session.accountant.describe() != decode(head["describe"]):
        raise RecoveryError(
            "reconstructed accountant does not match the 'open' record: "
            f"{session.accountant.describe()} != {head['describe']}"
        )
    return session


def _replay(session, records: Iterable[dict], measurement_cache) -> int:
    """Apply the records after the ``open`` record to a detached session."""
    from ..service.session import SessionEvent

    replayed = 0
    for record in records:
        kind = record.get("kind")
        if kind == "charge":
            session.kernel.budget_tracker.apply_restored_charge(
                Cost(float(record["p"]), float(record["d"]))
            )
        elif kind == "measurement":
            session.kernel.restore_measurement(_from_record(MeasurementRecord, record))
        elif kind == "event":
            session.events.append(_from_record(SessionEvent, record))
            request_number = _request_number(session.session_id, record.get("request_id"))
            if request_number is not None:
                session.request_counter = max(session.request_counter, request_number)
        elif kind == "release":
            if measurement_cache is not None:
                response = response_from_state(decode(record["response"]))
                measurement_cache.store(
                    session,
                    decode(record["key"]),
                    response,
                    int(record["history_start"]),
                    int(record["history_end"]),
                )
        elif kind == "open":
            # A second open record would mean two sessions shared one journal.
            raise RecoveryError(
                f"unexpected 'open' record at seq {record.get('seq')}"
            )
        else:
            raise RecoveryError(f"unknown record kind {kind!r}")
        replayed += 1
    return replayed


def _request_number(session_id: str, request_id) -> int | None:
    """The N of a ``<session>-rN`` request id (None for foreign formats)."""
    if not isinstance(request_id, str):
        return None
    prefix = f"{session_id}-r"
    if not request_id.startswith(prefix):
        return None
    try:
        return int(request_id[len(prefix):])
    except ValueError:
        return None


def restore_session(
    table,
    *,
    snapshot: dict | None = None,
    journal: PrivacyJournal | None = None,
    manager=None,
    measurement_cache=None,
    strict: bool = True,
):
    """Rebuild a session from durable records and verify it reconciles.

    ``table`` is the original private relation (never part of the durable
    state).  Provide a ``snapshot``, a ``journal``, or both — with both, the
    journal's records past the snapshot's sequence number follow the
    snapshot's records.  ``manager`` adopts the restored session;
    ``measurement_cache`` receives the session's released answers so
    identical requests replay at zero ε.

    Raises :class:`RecoveryError` for a snapshot without records, and, when
    ``strict`` (the default), when the restored state fails verification:
    accountant mismatch, or the :func:`~repro.service.export.reconcile`
    oracle reporting anything but an exact match between the event ledger
    and the kernel ledger.
    """
    from ..service.export import reconcile

    if snapshot is None and journal is None:
        raise ValueError("restore needs a snapshot, a journal, or both")
    records, after_seq = iter(()), 0
    if snapshot is not None:
        try:
            records, after_seq = iter(snapshot["records"]), int(snapshot["journal_seq"])
        except KeyError as missing:
            raise RecoveryError(
                f"snapshot has no {missing} field: a snapshot is "
                "{'journal_seq': N, 'records': [...]}"
            ) from None
    if journal is not None:
        # One pass over the journal decodes each line once.
        records = itertools.chain(records, journal.iter_records(after_seq))
    session = _open_session(table, next(records, None), strict)
    replayed = _replay(session, records, measurement_cache)
    if journal is not None:
        # Attach for future requests; the journal already has the session's
        # open record (or a snapshot supersedes it), so don't write another.
        session.attach_journal(journal, write_open=False)
    orphans = session.claim_orphans(error="CrashRecovery")
    if journal is not None:
        journal.commit()
    report = reconcile(session)
    if strict and not report["exact"]:
        raise RecoveryError(
            "restored session does not reconcile: "
            f"service ε {report['service_epsilon']!r} vs kernel ε "
            f"{report['kernel_epsilon']!r}, claimed "
            f"{report['history_claimed']}/{report['history_records']} records"
        )
    session.recovery_info = {
        "replayed_records": replayed,
        "orphaned_event": asdict(orphans[-1]) if orphans else None,
        "orphaned_events": [asdict(o) for o in orphans],
        "reconcile": report,
    }
    if manager is not None:
        manager.adopt(session)
    return session
