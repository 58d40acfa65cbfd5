"""Crash safety for the query service: journal, snapshots, fault injection.

The service's privacy state — budget charges, measurement history, the audit
trail, released answers — must survive the process dying at any instruction.
This package provides the three pieces:

* :class:`PrivacyJournal` — a CRC-checked journal of the session's
  records, built in :mod:`.snapshot`: one ``open`` record, then one
  ``commit`` record per request holding its charges, measurement rows,
  release and audit event, each written as a JSON header followed by its
  arrays as raw bytes (older JSON-line journals stay readable).  The
  session's commit writes it before the response or a replayed answer
  leaves the service, so a crash can waste budget (the charges of a
  request nobody saw), never leak it.  Torn or corrupt tails are truncated
  on open.
* :func:`snapshot_session` / :func:`restore_session` — a snapshot is the
  same two record shapes built from a live session; a restore replays a
  snapshot, a journal or both (journals written before commit records
  included) through one path and verifies the result against the
  service's reconciliation oracle; released answers come back
  byte-identical at zero additional ε.
* :class:`FaultInjector` — deterministic fault schedules fired at the
  instrumented seams (kernel charge path, journal append/fsync, scheduler
  workers), driving the crash-recovery property suite in
  ``tests/test_durability.py``.
"""

from .faults import FAULT_POINTS, FaultInjector, InjectedFault, WorkerDeath
from .journal import PrivacyJournal
from .serialize import decode, encode
from .snapshot import (
    RecoveryError,
    response_from_state,
    response_state,
    restore_session,
    snapshot_session,
)

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "InjectedFault",
    "PrivacyJournal",
    "RecoveryError",
    "WorkerDeath",
    "decode",
    "encode",
    "response_from_state",
    "response_state",
    "restore_session",
    "snapshot_session",
]
