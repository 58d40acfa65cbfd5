"""Snapshot and restore of service sessions, reconciled against the journal.

A **snapshot** is a JSON-ready dict capturing everything the service needs to
resume a session's *accounting* exactly — kernel bookkeeping (budget graph,
root ledger, measurement history, noise seed, name counter), the audit-trail
events, the accountant's configuration, the request counter, the session's
cached releases and the journal sequence number it was taken at.  It never
contains the private table: restoring requires the deployment to supply the
original data, which stays the operator's.

**Restore** rebuilds a session from a snapshot and/or a
:class:`~repro.durability.journal.PrivacyJournal`:

1. construct a fresh session around the supplied table (from the snapshot,
   or from the journal's ``open`` record when no snapshot exists), verifying
   the reconstructed accountant matches the recorded configuration;
2. replay the journal suffix past the snapshot's sequence number — charges
   into the root ledger, measurement records into the kernel history, events
   into the audit trail, released answers back into the measurement cache
   (byte-identical: arrays round-trip through base64 of their raw buffer);
3. attach the journal (without a second ``open`` record) and *claim
   orphans*: budget that was charged-ahead but whose request never recorded
   an event (the crash window) is claimed by one synthesized errored event,
   so the audit trail still covers every charge and every history row;
4. run the PR-1 :func:`~repro.service.export.reconcile` oracle — the
   restored session's event ledger must match its kernel ledger *exactly*,
   or :class:`RecoveryError` is raised (``strict=False`` downgrades both
   this and the accountant check to best-effort for forensics on a journal
   you already know is damaged).

The module imports the service layer lazily inside functions:
``repro.service`` imports ``repro.durability`` at module level, and this is
the edge that would otherwise close the cycle.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, fields as dataclass_fields
from typing import Iterable

from ..accounting.base import Cost
from ..private.kernel import MeasurementRecord
from .journal import PrivacyJournal
from .serialize import decode, encode

__all__ = [
    "RecoveryError",
    "SNAPSHOT_VERSION",
    "response_from_state",
    "response_state",
    "restore_session",
    "snapshot_session",
]

SNAPSHOT_VERSION = 1


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
# Snapshot.
# ----------------------------------------------------------------------
def snapshot_session(session, measurement_cache=None) -> dict:
    """Serialise one session's durable state to a JSON-ready dict.

    Taken under the session lock, so the kernel state, event ledger, cache
    contents and journal sequence number are one consistent cut.  Pass the
    scheduler's ``measurement_cache`` to include the session's released
    answers (restores replay them budget-free); without it the snapshot
    still reconciles, it just cannot serve pre-crash answers from cache.
    """
    with session.lock:
        cache_entries = []
        if measurement_cache is not None:
            for entry in measurement_cache.export_session(session):
                cache_entries.append(
                    {
                        "key": encode(entry["key"]),
                        "response": encode(response_state(entry["response"])),
                        "history_start": entry["history_start"],
                        "history_end": entry["history_end"],
                    }
                )
        return {
            "version": SNAPSHOT_VERSION,
            "session_id": session.session_id,
            "tenant": session.tenant,
            "base_seed": session.base_seed,
            "accountant": {
                "name": session.accountant.name,
                "epsilon_total": session.requested_epsilon_total,
                "delta": session.requested_delta,
                "describe": session.accountant.describe(),
            },
            "request_counter": session.request_counter,
            "journal_seq": session.journal.seq if session.journal is not None else 0,
            "kernel": session.kernel.state_dict(),
            "events": [asdict(event) for event in session.events],
            "cache": cache_entries,
        }


# ----------------------------------------------------------------------
# Restore.
# ----------------------------------------------------------------------
def _build_from_snapshot(table, snapshot: dict, strict: bool):
    from ..service.session import Session, SessionEvent

    if snapshot.get("version") != SNAPSHOT_VERSION:
        raise RecoveryError(
            f"unsupported snapshot version {snapshot.get('version')!r}"
        )
    meta = snapshot["accountant"]
    session = Session(
        snapshot["session_id"],
        snapshot["tenant"],
        table,
        meta["epsilon_total"],
        seed=snapshot["base_seed"],
        accountant=meta["name"],
        delta=meta["delta"],
    )
    if strict and session.accountant.describe() != decode(meta["describe"]):
        raise RecoveryError(
            "reconstructed accountant does not match the snapshot: "
            f"{session.accountant.describe()} != {meta['describe']}"
        )
    session.kernel.load_state(snapshot["kernel"])
    session.request_counter = int(snapshot["request_counter"])
    session.events = [_from_record(SessionEvent, record) for record in snapshot["events"]]
    return session, int(snapshot["journal_seq"])


def _build_from_journal(table, head: dict | None, strict: bool):
    """A session built from the journal's first record, its ``open`` record."""
    from ..service.session import Session

    if head is None or head.get("kind") != "open":
        raise RecoveryError(
            "journal has no 'open' record; restoring without a snapshot "
            "needs the session's opening metadata"
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
            "reconstructed accountant does not match the journal's open record"
        )
    return session


def _replay(session, records: Iterable[dict], measurement_cache) -> int:
    """Apply journal records (the suffix past the restore point) to a detached session."""
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
            raise RecoveryError(f"unknown journal record kind {kind!r}")
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
    """Rebuild a session from durable state and verify it reconciles.

    ``table`` is the original private relation (never part of the durable
    state).  Provide a ``snapshot``, a ``journal``, or both — with both, the
    journal suffix past the snapshot's sequence number is replayed on top.
    ``manager`` adopts the restored session; ``measurement_cache`` receives
    the session's released answers so identical requests replay at zero ε.

    Raises :class:`RecoveryError` when ``strict`` (the default) and the
    restored state fails verification: accountant mismatch, or the
    :func:`~repro.service.export.reconcile` oracle reporting anything but an
    exact match between the event ledger and the kernel ledger.
    """
    from ..service.export import reconcile

    if snapshot is None and journal is None:
        raise ValueError("restore needs a snapshot, a journal, or both")
    if snapshot is not None:
        session, after_seq = _build_from_snapshot(table, snapshot, strict)
        if measurement_cache is not None:
            for entry in snapshot.get("cache", []):
                measurement_cache.store(
                    session,
                    decode(entry["key"]),
                    response_from_state(decode(entry["response"])),
                    int(entry["history_start"]),
                    int(entry["history_end"]),
                )
        records = journal.iter_records(after_seq) if journal is not None else None
    else:
        # One pass over the journal decodes each line once: the open record
        # first, then the replay.
        records = journal.iter_records()
        session = _build_from_journal(table, next(records, None), strict)
    replayed = 0
    if journal is not None:
        replayed = _replay(session, records, measurement_cache)
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
