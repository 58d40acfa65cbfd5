"""Privacy journal: the durable record of everything that spends ε.

Every budget charge accepted at the root ledger, every kernel measurement
record, every released answer and every audit-trail session event reaches
the journal in its request's one ``commit`` record, which the session
writes *before* the response (or a replayed answer) leaves the service.  A
crash before the commit can only waste budget (the charges of a request
whose answer nobody saw), never leak it: no answer is released whose
charges are not journaled.  A journal attached to a session that has
already answered requests starts with one commit of the whole session so
far (:meth:`~repro.service.session.Session.attach_journal`).

Format: one frame per record.  A frame is the CRC32 of the record, as
eight hex digits, then the byte length of its raw section, a space, the
record's JSON header and a newline, then the raw section: the
little-endian bytes of the record's numpy arrays, back to back.  The
journal takes each record packed — its header without ``seq``, and its
arrays (:meth:`PrivacyJournal.append_packed`), as
:func:`~repro.durability.serialize.pack` packs a dict and
:func:`~repro.durability.records.pack_commit` writes a commit — then
numbers and frames it; :mod:`repro.durability.records` decides what the
records hold.  An Identity request's commit at n=3, whose release holds a
3-entry ``x_hat`` and 3 prefix answers (48 raw bytes), elided::

    bcc1bada 48 {"seq":2,"kind":"commit","records":[{"kind":"charge",...},
    ...,{"kind":"release","key":{...},
    "x_hat":{"__raw__":0,"dtype":"<f8","shape":[3]},
    "answers":{"__raw__":24,"dtype":"<f8","shape":[3]},"seed":...},...]}\n
    <48 bytes: x_hat, then the answers>

The header is one line in the file (wrapped here); the CRC covers it and
the raw section.  Journals written before raw payloads hold JSON lines,
each ``<crc> {"seq":N,...}\n`` with its arrays encoded inside the JSON.
The journal reads no such line: it refuses a file whose frames stop at an
intact one, naming the format, and leaves the file's bytes as they are
(read as a torn tail, the line would be truncated away with everything
after it).

``seq`` is a strictly sequential record number, always the first key.  On
open, the journal scans existing content and validates each frame's CRC
and its ``{"seq":N,`` prefix for sequence continuity, without decoding the
JSON; the length lets it step over the raw section.  The first torn or
corrupt record (a half-written frame from a crash mid-append, a flipped
bit, a length that runs past the end of the file) truncates the file at
the last good byte — the journal's contract is *prefix durability*, never
a gap.

The journal keeps no copy of its records in memory, so a long-lived session
does not grow with its journal: :meth:`PrivacyJournal.iter_records` decodes
the file (or the in-memory buffer) one frame at a time on each call, which
only restore and forensics do, and hands out arrays that own their memory,
so a record kept after the read (a restored release) never pins the file's
bytes.

Durability modes (``fsync=``):

* ``"commit"`` (default) — records are buffered per append and flushed to the
  OS at every :meth:`commit` (the session commits once per request, before
  the response is returned).  Survives process death — the fault model of
  this repo's crash harness — at ~µs cost.
* ``"always"`` — additionally ``os.fsync`` on every commit: survives OS/power
  loss, at the device's sync latency (~100µs+ per request).  The fsync runs
  behind the ``journal.fsync`` fault seam.

``path=None`` keeps the journal in an in-memory buffer with identical
semantics (minus the ``os.fsync``; the seam still fires), which the
benchmarks use to isolate append cost.
"""

from __future__ import annotations

import io
import os
import threading
import zlib
from pathlib import Path
from typing import Iterator

from .faults import FaultInjector
from .serialize import pack, unpack

__all__ = ["PrivacyJournal"]

_FSYNC_MODES = ("always", "commit")


def _encode_frame(header: bytes, arrays: list) -> bytes:
    """One packed record, its JSON ``header`` (``seq`` its first key) and
    its ``arrays``, as the frame the module docs describe."""
    crc, size = zlib.crc32(header), 0
    for array in arrays:
        crc = zlib.crc32(array, crc)
        size += array.nbytes
    return b"".join([b"%08x %d " % (crc, size), header, b"\n", *arrays])


def _frame_at(raw: bytes, start: int) -> tuple[int, int, int] | None:
    """The (header start, header end, frame end) of the whole frame at
    ``start`` — the raw section runs from header end + 1 to frame end — or
    None when what starts there is torn.  Nothing is checked but the
    layout."""
    space = raw.find(b" ", start + 9, start + 30)
    if space < 0 or not raw[start + 9:space].isdigit():
        return None
    header, size = space + 1, int(raw[start + 9:space])
    newline = raw.find(b"\n", header)
    end = newline + 1 + size
    if newline < 0 or end > len(raw):
        return None
    return header, newline, end


def _json_line_at(raw: bytes, start: int) -> bool:
    """Whether an intact JSON line of the old format starts at ``start``:
    ``<crc> {...}\n``, its CRC over the JSON."""
    newline = raw.find(b"\n", start)
    return (
        raw[start + 9:start + 10] == b"{"
        and newline > 0
        and raw[start:start + 9] == b"%08x " % zlib.crc32(raw[start + 9:newline])
    )


def _intact(raw: bytes, start: int, frame: tuple[int, int, int], seq: int) -> bool:
    """Whether the frame at ``start`` is an undamaged record numbered ``seq``.

    Its CRC must match the header and the raw section, and the header must
    start with the fixed ``{"seq":N,`` prefix (``seq`` is always the first
    key).  The JSON is not decoded and nothing is copied.
    """
    header, newline, end = frame
    view = memoryview(raw)
    crc = zlib.crc32(view[newline + 1:end], zlib.crc32(view[header:newline]))
    head = b'{"seq":%d' % seq
    return (
        raw[start:start + 9] == b"%08x " % crc
        and raw.startswith(head, header)
        and raw[header + len(head):header + len(head) + 1] in (b",", b"}")
    )


class PrivacyJournal:
    """Append-only, CRC-checked, crash-recoverable journal of framed records."""

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
        """Count the intact records, truncating a torn or corrupt tail.

        Raises ``ValueError``, changing nothing, when the records stop at a
        JSON line of the old format.
        """
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        offset = 0
        while (frame := _frame_at(raw, offset)) is not None and _intact(
            raw, offset, frame, self.seq + 1
        ):
            self.seq += 1
            offset = frame[2]
        if _json_line_at(raw, offset):
            raise ValueError(
                f"{self.path} holds JSON-line records, the journal format "
                "written before raw payloads, which this version does not "
                "read; the file is left unchanged"
            )
        if offset < len(raw):
            # Count the frames the tail still lays out (the first is the bad
            # one), plus one for any torn remainder.
            self.truncated_bytes = len(raw) - offset
            end = offset
            while (frame := _frame_at(raw, end)) is not None:
                self.truncated_records += 1
                end = frame[2]
            self.truncated_records += end < len(raw)
            with open(self.path, "r+b") as f:
                f.truncate(offset)

    # ------------------------------------------------------------------
    # Append path.
    # ------------------------------------------------------------------
    def append(self, record: dict) -> int:
        """Append one record, a dict with a ``kind`` and no ``seq``; returns
        its sequence number (see :meth:`append_packed`)."""
        return self.append_packed(record.get("kind"), *pack(record))

    def append_packed(self, kind: str, header: bytes, arrays: list) -> int:
        """Append one record of ``kind`` in packed form — its JSON header,
        without ``seq``, and its arrays, as
        :func:`~repro.durability.serialize.pack` gives them; returns its
        sequence number, which the frame's header starts with.

        The record is written (and buffered) immediately; durability against
        process death is established by the next :meth:`commit`.  A failed
        write leaves at most a torn tail, which the next open truncates.
        """
        with self._lock:
            if self._closed:
                raise ValueError("journal is closed")
            if self.faults is not None:
                self.faults.fire("journal.append", kind)
            seq = self.seq + 1
            if header == b"{}":
                header = b'{"seq":%d}' % seq
            else:
                header = b'{"seq":%d,%s' % (seq, header[1:])
            self._file.write(_encode_frame(header, arrays))
            self.seq = seq
            return seq

    def commit(self) -> None:
        """Make everything appended so far durable (per the fsync mode)."""
        with self._lock:
            if self._closed:
                return
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
    def iter_records(self) -> Iterator[dict]:
        """Decode the records, in order, one at a time.

        Read from the file (or the in-memory buffer) on every call: the
        journal keeps no decoded copy of its records, and a restore holds
        the raw bytes and one decoded record at a time.
        """
        with self._lock:
            if not self._closed:
                self._file.flush()
            raw = self._file.getvalue() if self.path is None else self.path.read_bytes()
        # A torn tail is never a record.
        start = 0
        while (frame := _frame_at(raw, start)) is not None:
            header, newline, start = frame
            yield unpack(raw[header:newline], memoryview(raw)[newline + 1:start])

    def __len__(self) -> int:
        return self.seq

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._file.flush()
            if self.path is not None:
                try:
                    os.fsync(self._file.fileno())
                except OSError:  # pragma: no cover - best-effort final sync
                    pass
                self._file.close()
            self._closed = True

    def __enter__(self) -> "PrivacyJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.path if self.path is not None else "<memory>"
        return f"PrivacyJournal({where}, records={len(self)}, fsync={self.fsync_mode!r})"
