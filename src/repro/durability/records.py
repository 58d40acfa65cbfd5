"""A session's durable records and its restore.

A session's durable state is one stream of **records**, each a JSON object
with a ``kind`` plus the numpy arrays it holds (which the journal writes as
raw bytes, see :mod:`repro.durability.serialize`).  There are two kinds:

* ``open`` — the session's opening metadata (:func:`open_record`): id,
  tenant, base seed and the accountant's configuration;
* ``commit`` — ``{"kind": "commit", "records": [...]}``: what one commit
  made durable, as its parts, in this order:

  * ``charge`` — one accepted root-level budget charge, ``{"kind":
    "charge", "p": primary, "d": delta}``;
  * ``measurement`` — one kernel history row, its fields in field order;
  * ``release`` — one released answer, a
    :class:`~repro.service.session.CachedAnswer`, its fields in field
    order: its request ``key``, ``x_hat`` and ``answers`` (as raw-byte
    tags), ``seed``, the plan's ``info`` and the
    ``history_start``/``history_end`` span that paid for it;
  * ``event`` — one audit-trail :class:`~repro.service.session.SessionEvent`,
    its fields in field order.

Each part holds exactly the fields its restore rebuilds, and one function
rebuilds the measurement, release and event parts: :func:`_from_record`.

One function writes every commit, :func:`pack_commit`: straight from the
session's new rows to the JSON header, one ``%s`` template per part filled
with the part's field values, and the release arrays for the raw section.
A value of a plain type is spelled as JSON spells it; a release's fields
first pass through :func:`~repro.durability.serialize.encode`, and what is
not plain after that — its key, its plan's ``info`` and its arrays (as
raw-section tags) — goes through the header encoder.  So a commit's bytes
are exactly those of the same record built as dicts and packed by
:func:`~repro.durability.serialize.pack`.

A journaled session's journal holds its ``open`` record, then ``commit``
records: attaching a journal writes the session's whole state so far as
one commit (nothing, for a fresh session), and each request then writes
one.  Neither ever contains the private table: restoring requires the
deployment to supply the original data, which stays the operator's.

**Restore** reads the journal once:

1. build a fresh session around the supplied table from the journal's first
   record, its ``open`` record, verifying the reconstructed accountant
   matches the recorded configuration;
2. replay the ``commit`` records part by part — charges into the root
   ledger, measurement rows into the kernel history, events into the audit
   trail and the request counter, released answers back into the session's
   releases (byte-identical, and not copied again: decoded arrays already
   own their memory).  A part that lacks a field its class requires raises
   :class:`RecoveryError` naming the kind and the field: a release part
   written before releases were flat, which nests a ``response`` record,
   has no ``x_hat`` and is refused so;
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
import operator
from dataclasses import MISSING, asdict, fields as dataclass_fields
from json.encoder import encode_basestring_ascii
from typing import Iterable

import numpy as np

from ..accounting.base import Cost
from ..private.kernel import MeasurementRecord
from .journal import PrivacyJournal
from .serialize import decode, encode, pack_text

__all__ = ["RecoveryError", "open_record", "pack_commit", "restore_session"]


class RecoveryError(Exception):
    """Restored state failed verification (accountant mismatch, inexact
    reconciliation, a malformed journal)."""


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


@functools.cache
def _members(cls) -> tuple[str, operator.attrgetter]:
    """The JSON members of a dataclass ``cls`` as a template, ``"name":%s``
    per field in field order, and the getter of the field values in that
    order."""
    names = [f.name for f in dataclass_fields(cls)]
    template = ",".join(encode_basestring_ascii(name) + ":%s" for name in names)
    return template, operator.attrgetter(*names)


def pack_commit(session, since: tuple[int, int, int], releases) -> tuple[bytes, list[np.ndarray]]:
    """Everything ``session`` changed past ``since`` — its (root-ledger
    length, history length, event count) marks — plus ``releases``, its
    :class:`~repro.service.session.CachedAnswer` entries, as one packed
    ``commit`` record: the JSON header (without ``seq``) and the release
    arrays, for :meth:`~repro.durability.PrivacyJournal.append_packed`.

    The parts are charges, measurement rows, releases and events, each a
    template filled from the object's fields; a release's fields pass
    through :func:`encode` first, as its dict record's do.
    """
    charges, rows, events = since
    kernel = session.kernel
    parts: list[str] = []
    values: list = []
    for cost in kernel.budget_tracker.ledger(charges):
        parts.append('{"kind":"charge","p":%s,"d":%s}')
        values += (cost.primary, cost.delta)
    for row in kernel.history_query(since=rows):
        members, fields = _members(type(row))
        parts.append('{"kind":"measurement",' + members + "}")
        values += fields(row)
    for entry in releases:
        members, fields = _members(type(entry))
        parts.append('{"kind":"release",' + members + "}")
        values += map(encode, fields(entry))
    for event in session.events[events:]:
        members, fields = _members(type(event))
        parts.append('{"kind":"event",' + members + "}")
        values += fields(event)
    return pack_text('{"kind":"commit","records":[' + ",".join(parts) + "]}", values)


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
                entry = _from_record(CachedAnswer, decode(part))
                session.releases[entry.key] = entry
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
        "orphaned_events": [asdict(o) for o in orphans],
        "reconcile": report,
    }
    if manager is not None:
        manager.adopt(session)
    return session
