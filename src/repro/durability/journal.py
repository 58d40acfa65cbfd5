"""Write-ahead privacy journal: the durable record of everything that spends ε.

Every budget charge accepted at the root ledger, every kernel measurement
record, every audit-trail session event and every released answer is appended
here *before* the response leaves the service — charge-ahead semantics: a
crash between charge and release can only waste budget (the restored ledger
still shows the charge, the answer was never released), never leak it (no
answer is released whose charges are not journaled).

Format: JSON lines, one record per line, each prefixed with the CRC32 of its
payload.  The records themselves (their five kinds and their fields) are
built in :mod:`repro.durability.snapshot`; the journal only frames them::

    3f91a2c4 {"seq":1,"kind":"charge","p":0.1,"d":0.0}

``seq`` is a strictly sequential record number, always the first key.  On
open, the journal scans existing content and validates each line's CRC and
its ``{"seq":N,`` prefix for sequence continuity, without decoding the JSON;
the first torn or corrupt record (a half-written line from a crash
mid-append, a flipped bit) truncates the file at the last good byte — the
journal's contract is *prefix durability*, never a gap.

The journal keeps no copy of its records in memory, so a long-lived session
does not grow with its journal: :meth:`PrivacyJournal.iter_records` decodes
the file (or the in-memory buffer) one line at a time on each call, which
only restore and forensics do.

Durability modes (``fsync=``):

* ``"commit"`` (default) — records are buffered per append and flushed to the
  OS at every :meth:`commit` (the scheduler commits once per request, before
  the response is returned).  Survives process death — the fault model of
  this repo's crash harness — at ~µs cost.
* ``"always"`` — additionally ``os.fsync`` on every commit: survives OS/power
  loss, at the device's sync latency (~100µs+ per request).
* ``"never"`` — flush only on close; fastest, for tests and benchmarks.

``path=None`` keeps the journal in an in-memory buffer with identical
semantics (minus fsync), which the benchmarks use to isolate append cost.
"""

from __future__ import annotations

import io
import json
import os
import threading
import zlib
from pathlib import Path
from typing import Iterator

from .faults import FaultInjector

__all__ = ["PrivacyJournal", "JournalCorruptionError"]

_FSYNC_MODES = ("always", "commit", "never")


class JournalCorruptionError(Exception):
    """Raised when a journal cannot be recovered (not merely truncated)."""


def _encode_line(record: dict) -> bytes:
    payload = json.dumps(record, separators=(",", ":"), default=float).encode("utf-8")
    return b"%08x " % zlib.crc32(payload) + payload + b"\n"


def _intact(raw: bytes, start: int, end: int, seq: int) -> bool:
    """Whether the line ``raw[start:end]`` is an undamaged record numbered ``seq``.

    The line must start with its payload's CRC as :func:`_encode_line`
    writes it, and the payload with the fixed ``{"seq":N,`` prefix (``seq``
    is always the first key).  The JSON is not decoded and the payload is
    not copied.
    """
    payload = start + 9
    head = b'{"seq":%d' % seq
    return (
        raw[start:payload] == b"%08x " % zlib.crc32(memoryview(raw)[payload:end])
        and raw.startswith(head, payload)
        and raw[payload + len(head):payload + len(head) + 1] in (b",", b"}")
    )


class PrivacyJournal:
    """Append-only, CRC-checked, crash-recoverable JSON-lines journal."""

    def __init__(
        self,
        path: str | Path | None,
        fsync: str = "commit",
        fault_injector: FaultInjector | None = None,
    ):
        if fsync not in _FSYNC_MODES:
            raise ValueError(f"fsync mode must be one of {_FSYNC_MODES}")
        self.path = Path(path) if path is not None else None
        self.fsync_mode = fsync
        self.faults = fault_injector
        self._lock = threading.RLock()
        self.seq = 0
        #: bytes discarded from a torn/corrupt tail at open time (0 = clean).
        self.truncated_bytes = 0
        self.truncated_records = 0
        if self.path is None:
            self._file = io.BytesIO()
        else:
            self._recover()
            self._file = open(self.path, "ab")
        self._closed = False

    # ------------------------------------------------------------------
    # Open-time recovery.
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Count the intact records, truncating a torn or corrupt tail."""
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        offset = 0
        while offset < len(raw):
            end = raw.find(b"\n", offset)
            if end < 0:
                break  # torn tail: no newline ever made it to disk
            if not _intact(raw, offset, end, self.seq + 1):
                break  # corrupt line, or a gap in the sequence
            self.seq += 1
            offset = end + 1
        if offset < len(raw):
            # Count whole remaining lines (the first is the bad one).
            tail = raw[offset:]
            self.truncated_bytes = len(tail)
            self.truncated_records = tail.count(b"\n") + (0 if tail.endswith(b"\n") else 1)
            with open(self.path, "r+b") as f:
                f.truncate(offset)

    # ------------------------------------------------------------------
    # Append path.
    # ------------------------------------------------------------------
    def append(self, record: dict) -> int:
        """Append one record; returns its sequence number.

        The record is written (and buffered) immediately; durability against
        process death is established by the next :meth:`commit`.  A failed
        write leaves at most a torn tail, which the next open truncates.
        """
        with self._lock:
            if self._closed:
                raise ValueError("journal is closed")
            if self.faults is not None:
                self.faults.fire("journal.append", record.get("kind"))
            seq = self.seq + 1
            stamped = {"seq": seq, **record}
            self._file.write(_encode_line(stamped))
            self.seq = seq
            return seq

    def commit(self) -> None:
        """Make everything appended so far durable (per the fsync mode)."""
        with self._lock:
            if self._closed:
                return
            if self.fsync_mode in ("commit", "always"):
                self._file.flush()
            if self.fsync_mode == "always":
                self._fsync()

    def _fsync(self) -> None:
        if self.faults is not None:
            self.faults.fire("journal.fsync")
        if self.path is not None:
            os.fsync(self._file.fileno())

    # ------------------------------------------------------------------
    # Read path.
    # ------------------------------------------------------------------
    def records(self, after_seq: int = 0) -> list[dict]:
        """All records with ``seq > after_seq``, in order."""
        return list(self.iter_records(after_seq))

    def iter_records(self, after_seq: int = 0) -> Iterator[dict]:
        """Decode the records with ``seq > after_seq``, one at a time.

        Read from the file (or the in-memory buffer) on every call: the
        journal keeps no decoded copy of its records, and a restore holds
        the raw bytes and one decoded record at a time.
        """
        with self._lock:
            if not self._closed:
                self._file.flush()
            raw = self._file.getvalue() if self.path is None else self.path.read_bytes()
        # seq numbers are 1-based and dense: the n-th line holds seq n.  A
        # torn tail has no newline and is never a record.
        start, seq = 0, 0
        while (end := raw.find(b"\n", start)) >= 0:
            seq += 1
            if seq > after_seq:
                yield json.loads(raw[start + 9:end])
            start = end + 1

    def __len__(self) -> int:
        return self.seq

    @property
    def stats(self) -> dict:
        with self._lock:
            return {
                "path": str(self.path) if self.path is not None else None,
                "fsync_mode": self.fsync_mode,
                "records": self.seq,
                "seq": self.seq,
                "truncated_bytes": self.truncated_bytes,
                "truncated_records": self.truncated_records,
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._file.flush()
            if self.path is not None and self.fsync_mode != "never":
                try:
                    os.fsync(self._file.fileno())
                except OSError:  # pragma: no cover - best-effort final sync
                    pass
            if self.path is not None:
                self._file.close()
            self._closed = True

    def __enter__(self) -> "PrivacyJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.path if self.path is not None else "<memory>"
        return f"PrivacyJournal({where}, records={len(self)}, fsync={self.fsync_mode!r})"
