"""Crash safety for the query service: journal, snapshots, fault injection.

The service's privacy state — budget charges, measurement history, the audit
trail, released answers — must survive the process dying at any instruction.
This package provides the three pieces:

* :class:`PrivacyJournal` — a write-ahead, CRC-checked, JSON-lines journal
  of the session's records (``open``, ``charge``, ``measurement``, ``event``,
  ``release``, all built in :mod:`.snapshot`).  Every charge is appended
  *before* the in-memory ledger mutates and every answer is journaled
  before it is released (charge-ahead: a crash can waste budget, never leak
  it).  Torn or corrupt tails are truncated on open.
* :func:`snapshot_session` / :func:`restore_session` — a snapshot is the
  same records built from a live session; a restore replays a snapshot, a
  journal or both through one path and verifies the result against the
  service's reconciliation oracle; released answers come back
  byte-identical at zero additional ε.
* :class:`FaultInjector` — deterministic fault schedules fired at the
  instrumented seams (kernel charge path, journal append/fsync, scheduler
  workers), driving the crash-recovery property suite in
  ``tests/test_durability.py``.
"""

from .faults import FAULT_POINTS, FaultInjector, InjectedFault, WorkerDeath
from .journal import JournalCorruptionError, PrivacyJournal
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
    "JournalCorruptionError",
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
