"""Crash safety for the query service: journal, restore, fault injection.

The service's privacy state — budget charges, measurement history, the audit
trail, released answers — must survive the process dying at any instruction.
A session's journal is its one durable form.  This package provides the
three pieces:

* :class:`PrivacyJournal` — a CRC-checked journal of the session's
  records, built in :mod:`.records`: one ``open`` record, then ``commit``
  records holding charges, measurement rows, releases and audit events,
  each written as a JSON header followed by its arrays as raw bytes.
  Attaching a journal to a session writes its whole state so far; after
  that, the session's commit writes one record per request before the
  response or a replayed answer leaves the service, so a crash can waste
  budget (the charges of a request nobody saw), never leak it.  Torn or
  corrupt tails are truncated on open.
* :func:`restore_session` — replays a journal into a fresh session around
  the original table and verifies the result against the service's
  reconciliation oracle; released answers come back byte-identical at zero
  additional ε.  Restoring a journal also moves a session: drain-close it,
  attach a journal if it has none, and restore that journal elsewhere.
* :class:`FaultInjector` — deterministic fault schedules fired at the
  instrumented seams (kernel charge path, journal append/fsync, scheduler
  workers), driving the crash-recovery property suite in
  ``tests/test_durability.py``.
"""

from .faults import FAULT_POINTS, FaultInjector, InjectedFault, WorkerDeath
from .journal import PrivacyJournal
from .records import RecoveryError, restore_session
from .serialize import decode, encode

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "InjectedFault",
    "PrivacyJournal",
    "RecoveryError",
    "WorkerDeath",
    "decode",
    "encode",
    "restore_session",
]
