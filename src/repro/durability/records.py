"""A session's durable records and its restore.

A session's durable state is one stream of **records**: dicts of JSON values
and numpy arrays (which the journal writes as raw bytes), each with a
``kind``.  This module builds all of them:

* ``open`` — the session's opening metadata: id, tenant, base seed and the
  accountant's configuration;
* ``commit`` — ``{"kind": "commit", "records": [...]}``: what one commit
  made durable, as its parts, in this order:

  * ``charge`` — one accepted root-level budget charge;
  * ``measurement`` — one kernel history row;
  * ``release`` — one released answer with its request key and the history
    span that paid for it, its arrays kept as arrays;
  * ``event`` — one audit-trail :class:`~repro.service.session.SessionEvent`.

A journaled session's journal holds its ``open`` record, then ``commit``
records built by :func:`commit_record`: attaching a journal writes the
session's whole state so far as one commit (nothing, for a fresh session),
and each request then writes one.  Neither ever contains the private table:
restoring requires the deployment to supply the original data, which stays
the operator's.

**Restore** reads the journal once:

1. build a fresh session around the supplied table from the journal's first
   record, its ``open`` record, verifying the reconstructed accountant
   matches the recorded configuration;
2. replay the ``commit`` records part by part — charges into the root
   ledger, measurement rows into the kernel history, events into the audit
   trail and the request counter, released answers back into the session's
   releases (byte-identical, and not copied again: decoded arrays already
   own their memory).  A part that lacks a field its class requires raises
   :class:`RecoveryError` naming the kind and the field;
3. attach the journal (writing nothing: it already holds the session) and
   *claim orphans*: budget whose request died before recording an event is
   claimed by one synthesized, committed errored event, so the audit trail
   still covers every charge and every history row;
4. run the :func:`~repro.service.export.reconcile` oracle — the restored
   session's event ledger must match its kernel ledger *exactly*, or
   :class:`RecoveryError` is raised.  Both checks always run; to inspect a
   journal you already know is damaged, read
   :meth:`~repro.durability.PrivacyJournal.iter_records`, which verifies
   nothing.

A restore rebuilds the root ledger, not the sources a plan derived before
it: the kernel's audit reports those by the history rows that name them.

The module imports the service layer lazily inside functions:
``repro.service`` imports ``repro.durability`` at module level, and this is
the edge that would otherwise close the cycle.
"""

from __future__ import annotations

import functools
from dataclasses import MISSING, asdict, fields as dataclass_fields
from typing import Iterable

from ..accounting.base import Cost
from ..private.kernel import MeasurementRecord
from .journal import PrivacyJournal
from .serialize import decode, encode

__all__ = [
    "RecoveryError",
    "charge_record",
    "commit_record",
    "event_record",
    "measurement_record",
    "open_record",
    "release_record",
    "response_from_state",
    "response_state",
    "restore_session",
]


class RecoveryError(Exception):
    """Restored state failed verification (accountant mismatch, inexact
    reconciliation, a malformed journal)."""


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
    older versions wrote but the class no longer has are dropped.  A
    record without a field the class requires raises :class:`RecoveryError`."""
    names = _field_names(cls)
    try:
        return cls(**{name: value for name, value in record.items() if name in names})
    except TypeError:
        missing = [
            f.name
            for f in dataclass_fields(cls)
            if f.name not in record and f.default is MISSING and f.default_factory is MISSING
        ]
        if not missing:
            raise
        kind = record.get("kind", cls.__name__)
        raise RecoveryError(f"{kind!r} record has no {missing[0]!r} field") from None


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
    [start, end) that paid for it; its arrays stay arrays, for the journal
    to write as raw bytes."""
    return {
        "kind": "release",
        "key": encode(key),
        "response": encode(response_state(response)),
        "history_start": history_start,
        "history_end": history_end,
    }


def commit_record(session, since: tuple[int, int, int], releases: list[dict]) -> dict:
    """Everything ``session`` changed past ``since`` — its (root-ledger
    length, history length, event count) marks — plus the ``releases``, as
    one ``commit`` record: charges, measurement rows, releases, events."""
    charges, rows, events = since
    kernel = session.kernel
    parts = [charge_record(cost) for cost in kernel.budget_tracker.ledger(charges)]
    parts += map(measurement_record, kernel.history_query(since=rows))
    parts += releases
    parts += map(event_record, session.events[events:])
    return {"kind": "commit", "records": parts}


# ----------------------------------------------------------------------
# Restore.
# ----------------------------------------------------------------------
def _open_session(table, head: dict | None):
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
    if session.accountant.describe() != decode(head["describe"]):
        raise RecoveryError(
            "reconstructed accountant does not match the 'open' record: "
            f"{session.accountant.describe()} != {head['describe']}"
        )
    return session


def _replay(session, records: Iterable[dict]) -> int:
    """Apply the ``commit`` records after the ``open`` record to a detached
    session.  Returns how many parts were applied."""
    from ..service.session import CachedAnswer, SessionEvent

    replayed = 0
    for record in records:
        if record.get("kind") != "commit":
            # A second open record would mean two sessions shared one journal.
            raise RecoveryError(
                f"unexpected {record.get('kind')!r} record at seq {record.get('seq')}"
            )
        parts = record.get("records")
        if not isinstance(parts, list):
            raise RecoveryError(f"'commit' record at seq {record.get('seq')} has no records")
        for part in parts:
            kind = part.get("kind")
            if kind == "charge":
                session.kernel.budget_tracker.apply_restored_charge(
                    Cost(float(part["p"]), float(part["d"]))
                )
            elif kind == "measurement":
                session.kernel.restore_measurement(_from_record(MeasurementRecord, part))
            elif kind == "event":
                session.events.append(_from_record(SessionEvent, part))
                number = _request_number(session.session_id, part.get("request_id"))
                if number is not None:
                    session.request_counter = max(session.request_counter, number)
            elif kind == "release":
                # Decoded arrays own their memory: stored as they are.
                session.releases[decode(part["key"])] = CachedAnswer(
                    response_from_state(decode(part["response"])),
                    int(part["history_start"]),
                    int(part["history_end"]),
                )
            else:
                raise RecoveryError(f"unknown record kind {kind!r}")
        replayed += len(parts)
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


def restore_session(table, journal: PrivacyJournal, manager=None):
    """Rebuild a session from its journal and verify it reconciles.

    ``table`` is the original private relation (never part of the durable
    state).  The restored session goes on journaling into ``journal``;
    ``manager`` adopts it.  The session's releases come back with it, so
    identical requests replay at zero ε.

    Raises :class:`RecoveryError` for a journal that does not start with an
    ``open`` record or holds a malformed record, and when the restored
    state fails verification: accountant mismatch, or the
    :func:`~repro.service.export.reconcile` oracle reporting anything but an
    exact match between the event ledger and the kernel ledger.
    """
    from ..service.export import reconcile

    # One pass over the journal decodes each record once.
    records = journal.iter_records()
    session = _open_session(table, next(records, None))
    replayed = _replay(session, records)
    session.attach_journal(journal, write_open=False)
    orphans = session.claim_orphans(error="CrashRecovery")
    session.commit()
    report = reconcile(session)
    if not report["exact"]:
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
