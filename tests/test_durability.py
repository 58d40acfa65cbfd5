"""Crash-safety tests: journal, restore, faults, request lifecycle.

The core invariants, verified deterministically and under randomised fault
schedules (hypothesis):

* **exactness** — a restored session always reconciles *exactly*: the sum of
  its audit events' spend equals its kernel ledger, and every measurement
  record is claimed by exactly one event (orphans from the crash window are
  claimed by a synthesized errored event);
* **byte identity** — answers released before the crash replay after restore
  with bit-for-bit identical arrays, at zero additional ε;
* **commit before release** — each request's charges, measurement rows,
  release and event reach the journal as one ``commit`` record before its
  response or replayed answer leaves the service, so no fault schedule can
  release an answer whose charges are not journaled; faults can only
  *waste* budget;
* **one durable form** — attaching a journal to a live session writes its
  whole state, so a journal attached at any point restores the session
  exactly.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import statistics
import threading
import time
import tracemalloc
import zlib
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset import Attribute, Relation, Schema
from repro.durability import (
    FaultInjector,
    InjectedFault,
    PrivacyJournal,
    RecoveryError,
    WorkerDeath,
    decode,
    encode,
    restore_session,
)
from repro.durability.journal import _encode_frame, _frame_at
from repro.durability.serialize import pack, unpack
from repro.matrix import Prefix
from repro.matrix.dense import DenseMatrix
from repro.plans.data_independent import IdentityPlan
from repro.plans.registry import PLANS_BY_NAME
from repro.private import BudgetExceededError, audit_kernel
from repro.private.kernel import MeasurementRecord
from repro.service import (
    CachedAnswer,
    PlanScheduler,
    QueryRequest,
    RequestFailure,
    SessionClosedError,
    SessionEvent,
    SessionManager,
    reconcile,
    session_report,
    telemetry_report,
)
from repro.telemetry import NOOP_SPAN, Tracer
from repro.workload.builders import _freeze
from tests.test_service import mwem_request
from tests.test_telemetry import OUTCOME_CASES, arrange_outcome

N = 64


@pytest.fixture
def relation(small_vector):
    schema = Schema.build([Attribute("v", len(small_vector))])
    return Relation.from_histogram(schema, small_vector)


@pytest.fixture
def manager():
    return SessionManager()


def identity_request(session, epsilon=0.1, **overrides):
    request = QueryRequest(
        session.session_id,
        plan="Identity",
        epsilon=epsilon,
        workload="prefix",
        workload_params={"n": N},
    )
    return replace(request, **overrides) if overrides else request


def dawa_request(session, epsilon=0.4, **overrides):
    """DAWA spends its budget over two kernel charges — the partial-spend probe."""
    request = QueryRequest(
        session.session_id,
        plan="DAWA",
        epsilon=epsilon,
        workload="prefix",
        workload_params={"n": N},
    )
    return replace(request, **overrides) if overrides else request


def dying_tiny_zcdp_session(manager, relation, journal=None):
    """A zCDP session whose whole ρ budget is ~1.81e-8, armed so that its next
    request dies right after its first charge.  An Identity request at ε=4e-5
    then leaves ρ 8e-10 charged and unrecorded: 4.4% of the budget, yet
    below an absolute 1e-9 slack."""
    faults = FaultInjector()
    faults.arm("kernel.after_charge", exception=WorkerDeath())
    session = manager.create_session(
        "acme", relation, 1e-3, seed=0, accountant="zcdp", delta=1e-6, journal=journal
    )
    session.kernel.fault_injector = faults
    return session


def commit_parts(records):
    """The per-kind records inside the ``commit`` records among ``records``."""
    return [
        part
        for record in records
        if record["kind"] == "commit"
        for part in record["records"]
    ]


def rewritten(records) -> PrivacyJournal:
    """A fresh in-memory journal holding ``records`` (their ``seq`` restamped)."""
    journal = PrivacyJournal(None)
    for record in records:
        journal.append({key: value for key, value in record.items() if key != "seq"})
    return journal


def attached(session) -> PrivacyJournal:
    """A fresh in-memory journal attached to ``session``: its whole state."""
    journal = PrivacyJournal(None)
    session.attach_journal(journal)
    return journal


def roundtrip(value):
    """``value`` through the journal's durable form: encode, pack, unpack, decode."""
    header, arrays = pack({"value": encode(value)})
    return decode(unpack(header, memoryview(b"".join(arrays)))["value"])


class _Opaque:
    """A hashable value of a type the journal does not know."""

    def __repr__(self):
        return "<opaque>"


#: Plan and workload parameter values a client might send: what ``_freeze``
#: keeps or converts (plain data, numpy scalars and arrays, matrices,
#: containers of them) and what it must refuse.  NaN is left out: it never
#: equals itself, so a NaN-keyed release replays neither live nor restored.
_PARAM_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(),
        st.binary(max_size=8),
        st.booleans().map(np.bool_),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.floats(allow_nan=False, width=32).map(np.float32),
        st.lists(st.floats(allow_nan=False), max_size=3).map(np.array),
        st.integers(1, 8).map(Prefix),
        st.fractions(),
        st.complex_numbers(allow_nan=False),
        st.text(max_size=3).map(np.str_),
        st.frozensets(st.integers(), max_size=2),
        st.just(_Opaque()),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=3), children, max_size=3),
        st.dictionaries(st.integers(), children, max_size=3),
    ),
    max_leaves=8,
)


# ======================================================================
# Serialisation.
# ======================================================================
class TestSerialize:
    def test_ndarray_roundtrip_is_byte_identical(self):
        rng = np.random.default_rng(0)
        for array in [
            rng.standard_normal(17),
            rng.standard_normal((3, 5)),
            np.arange(6, dtype=np.int32).reshape(2, 3),
            np.array([], dtype=np.float64),
        ]:
            back = roundtrip(array)
            assert back.dtype == array.dtype
            assert back.shape == array.shape
            assert back.tobytes() == array.tobytes()

    def test_nested_tuple_roundtrip_preserves_types(self):
        value = ("query", "Identity", (("n", 64), ("x", (1, 2.5))), None, 0.1)
        back = roundtrip(value)
        assert back == value
        assert isinstance(back, tuple)
        assert isinstance(back[2], tuple)
        assert isinstance(back[2][0], tuple)

    def test_scalars_bytes_and_dicts(self):
        value = {
            "i": np.int64(7),
            "f": np.float64(1.5),
            "b": np.bool_(True),
            "raw": b"\x00\xff",
            "empty": b"",
            "nested": {"t": (1, 2)},
        }
        back = roundtrip(value)
        assert back["i"] == 7 and isinstance(back["i"], int)
        assert back["f"] == 1.5
        assert back["b"] is True
        assert back["raw"] == b"\x00\xff" and back["empty"] == b""
        assert back["nested"]["t"] == (1, 2)

    def test_bytes_travel_as_raw_uint8(self):
        header, arrays = pack({"key": encode(("q", b"\x00\xffab"))})
        assert b"ab" not in header
        assert [(a.dtype, a.tobytes()) for a in arrays] == [(np.uint8, b"\x00\xffab")]

    def test_dict_colliding_with_tag_keys_is_escaped(self):
        value = {"__tuple__": [1, 2], "other": 3}
        back = roundtrip(value)
        assert back == value and isinstance(back["__tuple__"], list)

    def test_pack_unpack_roundtrip_gives_arrays_that_own_their_memory(self):
        rng = np.random.default_rng(0)
        arrays = [
            rng.standard_normal(17),
            rng.standard_normal((3, 5)).T,  # not contiguous
            np.arange(6, dtype=">i4").reshape(2, 3),  # big-endian
            np.array([], dtype=np.float64),
            np.array(2.5),
        ]
        record = {
            "kind": "release",
            "arrays": arrays,
            "key": encode(("q", (1, 2.5))),
            "info": encode({"__raw__": 0, "x": rng.standard_normal(2)}),
        }
        x = dict(record["info"]["__dict__"])["x"]  # escaped as key-value pairs
        header, buffers = pack(record)
        raw = b"".join(buffers)
        assert len(raw) == sum(array.nbytes for array in arrays) + x.nbytes
        back = unpack(header, memoryview(raw))
        for array, restored in zip(arrays, back["arrays"]):
            assert restored.dtype == array.dtype and restored.shape == array.shape
            assert restored.tobytes() == array.tobytes()
            assert restored.flags.owndata and restored.base is None
        assert decode(back["key"]) == ("q", (1, 2.5))
        info = decode(back["info"])  # a plain dict that has the tag as a key
        assert info["__raw__"] == 0 and info["x"].tobytes() == x.tobytes()

    def test_unknown_objects_degrade_to_repr(self):
        assert roundtrip(_Opaque()) == "<opaque>"

    @given(value=_PARAM_VALUES)
    @settings(max_examples=150, deadline=None)
    def test_every_key_freeze_accepts_survives_the_journal(self, value):
        """A request key is journaled with its release and must come back
        equal, with the same repr (the repr seeds the request's noise): so
        ``_freeze`` accepts only what the encoding round-trips, and refuses
        the rest with ``TypeError``."""
        try:
            key = _freeze(value)
        except TypeError:
            return
        back = roundtrip(key)
        assert back == key and hash(back) == hash(key)
        assert repr(back) == repr(key)


# ======================================================================
# Journal.
# ======================================================================
class TestJournal:
    def test_append_commit_reopen(self, tmp_path):
        path = tmp_path / "j.wal"
        with PrivacyJournal(path) as journal:
            assert journal.append({"kind": "charge", "p": 0.1, "d": 0.0}) == 1
            assert journal.append({"kind": "charge", "p": 0.2, "d": 0.0}) == 2
            journal.commit()
        reopened = PrivacyJournal(path)
        assert reopened.seq == 2
        assert [(r["seq"], r["p"]) for r in reopened.iter_records()] == [(1, 0.1), (2, 0.2)]
        # Appends continue the sequence.
        assert reopened.append({"kind": "charge", "p": 0.3, "d": 0.0}) == 3
        reopened.close()

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "j.wal"
        with PrivacyJournal(path) as journal:
            journal.append({"kind": "charge", "p": 0.1, "d": 0.0})
            journal.append({"kind": "charge", "p": 0.2, "d": 0.0})
        # Simulate a crash mid-append: half a frame, no newline.
        with open(path, "ab") as f:
            f.write(b"deadbeef 0 {\"seq\":3,\"kind\":\"char")
        recovered = PrivacyJournal(path)
        assert recovered.seq == 2
        assert recovered.truncated_bytes > 0
        assert recovered.truncated_records == 1
        # The file itself was repaired: a further reopen is clean.
        recovered.close()
        assert PrivacyJournal(path).truncated_bytes == 0

    def test_corrupt_record_truncates_rest(self, tmp_path):
        path = tmp_path / "j.wal"
        with PrivacyJournal(path) as journal:
            for i in range(4):
                journal.append({"kind": "charge", "p": float(i), "d": 0.0})
        raw = path.read_bytes()
        lines = raw.split(b"\n")
        # Flip a byte inside the third record's payload.
        lines[2] = lines[2][:-2] + b"X" + lines[2][-1:]
        path.write_bytes(b"\n".join(lines))
        recovered = PrivacyJournal(path)
        # Prefix durability: records after the corrupt one are gone too.
        assert recovered.seq == 2
        assert recovered.truncated_records == 2

    def test_sequence_gap_truncates(self, tmp_path):
        path = tmp_path / "j.wal"
        with open(path, "wb") as f:
            f.write(_encode_frame(*pack({"seq": 1, "kind": "charge", "p": 0.1, "d": 0.0})))
            f.write(_encode_frame(*pack({"seq": 3, "kind": "charge", "p": 0.3, "d": 0.0})))
        recovered = PrivacyJournal(path)
        assert recovered.seq == 1

    def test_in_memory_journal(self):
        journal = PrivacyJournal(None)
        journal.append({"kind": "charge", "p": 0.1, "d": 0.0})
        assert len(journal) == 1 and journal.path is None
        with pytest.raises(ValueError, match="fsync mode"):
            PrivacyJournal(None, fsync="never")

    @pytest.mark.parametrize("mode, syncs_per_commit", [("commit", 0), ("always", 1)])
    def test_fsync_mode_sets_the_syncs_per_commit(
        self, tmp_path, monkeypatch, mode, syncs_per_commit
    ):
        """Both modes hand every commit to the OS; ``always`` also fsyncs it
        (to survive power loss).  Both fsync once more at close."""
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        path = tmp_path / "j.wal"
        journal = PrivacyJournal(path, fsync=mode)
        sizes = []
        for p in (0.1, 0.2, 0.3):
            journal.append({"kind": "charge", "p": p, "d": 0.0})
            journal.commit()
            sizes.append(path.stat().st_size)
        assert sizes == sorted(set(sizes)) and sizes[0] > 0
        assert len(synced) == 3 * syncs_per_commit
        journal.close()
        assert len(synced) == 3 * syncs_per_commit + 1
        assert path.stat().st_size == sizes[-1]

    @staticmethod
    def _json_line(record: dict) -> bytes:
        """``record`` as the JSON line journals held before raw payloads."""
        line = json.dumps(record, separators=(",", ":")).encode()
        return b"%08x " % zlib.crc32(line) + line + b"\n"

    def test_json_line_journal_is_refused_unchanged(self, tmp_path):
        """A journal of the format written before raw payloads is refused,
        naming the format, and its bytes stay as they were: a strict frame
        reader would truncate it all away as a torn tail."""
        path = tmp_path / "old.wal"
        line = self._json_line({"seq": 1, "kind": "charge", "p": 0.1, "d": 0.0})
        frame = _encode_frame(*pack({"seq": 2, "kind": "charge", "p": 0.2, "d": 0.0}))
        for content in (line, line + frame):  # new frames once followed old lines
            path.write_bytes(content)
            with pytest.raises(ValueError, match="JSON-line"):
                PrivacyJournal(path)
            assert path.read_bytes() == content

    def test_append_fault_raises_and_leaves_no_record(self):
        faults = FaultInjector()
        faults.arm("journal.append", after=1)
        journal = PrivacyJournal(None, fault_injector=faults)
        journal.append({"kind": "charge", "p": 0.1, "d": 0.0})
        with pytest.raises(InjectedFault):
            journal.append({"kind": "charge", "p": 0.2, "d": 0.0})
        assert journal.seq == 1

    def test_journaled_session_keeps_no_copy_of_its_releases(self, tmp_path):
        """A journaled session's memory is bounded by its releases.

        200 fresh Identity releases at n=4096 write at least their raw
        payloads, ``x_hat`` and the prefix answers at 8 bytes an entry
        (~13 MB); they share one request key, so the session keeps one
        release, and what it retains must be a small fraction of that (an
        in-memory mirror of the journal retains all of it).
        """
        n = 4096
        values = np.random.default_rng(0).integers(0, 20, n).astype(float)
        relation = Relation.from_histogram(Schema.build([Attribute("v", n)]), values)
        manager = SessionManager()
        path = tmp_path / "j.wal"
        session = manager.create_session(
            "t", relation, 1e3, seed=0, journal=PrivacyJournal(path)
        )
        scheduler = PlanScheduler(manager, executor="inline")
        request = QueryRequest(
            session.session_id,
            plan="Identity",
            epsilon=1.0,
            workload="prefix",
            workload_params={"n": n},
            reuse=False,
        )
        tracemalloc.start()
        try:
            scheduler.execute(request)
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                scheduler.execute(request)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        written = path.stat().st_size
        assert written > 200 * 2 * n * 8
        assert grown < written / 10
        assert len(session.releases) == 1


class TestRawPayloadFrames:
    """A record's arrays travel as the raw section of its frame; a torn,
    flipped or overlong frame is truncated at open, exactly, and never
    raises."""

    #: the raw section of an n=64 Identity release: x_hat and 64 answers
    RAW = 2 * N * 8

    @staticmethod
    def _journal_bytes(directory):
        """An n=64 journal of an open record and two fresh Identity commits;
        returns its bytes, the offsets where the two commits start and the
        ε the session had spent before the second."""
        path = directory / "j.wal"
        manager = SessionManager()
        scheduler = PlanScheduler(manager, executor="inline")
        session = manager.create_session(
            "acme", _property_relation(), 8.0, seed=5, journal=PrivacyJournal(path)
        )
        first = path.stat().st_size
        scheduler.execute(identity_request(session, epsilon=0.1))
        last, spent = path.stat().st_size, session.budget_consumed()
        scheduler.execute(identity_request(session, epsilon=0.2))
        session.journal.close()
        raw = path.read_bytes()
        for start in (first, last):  # each commit carries a raw section
            assert raw[start + 9:raw.index(b" ", start + 9)] == b"%d" % TestRawPayloadFrames.RAW
        return raw, first, last, spent

    @staticmethod
    def _reopen(path, content):
        path.write_bytes(content)
        journal = PrivacyJournal(path)
        journal.close()
        return journal.seq, journal.truncated_records, journal.truncated_bytes

    def test_a_cut_anywhere_in_the_last_frame_truncates_exactly_it(self, tmp_path):
        raw, _, last, _ = self._journal_bytes(tmp_path)
        path = tmp_path / "cut.wal"
        for cut in range(last + 1, len(raw)):
            assert self._reopen(path, raw[:cut]) == (2, 1, cut - last)
        assert path.read_bytes() == raw[:last]  # repaired to the frame boundary

    @settings(max_examples=20, deadline=None)
    @given(share=st.floats(0.0, 1.0, exclude_max=True))
    def test_restore_after_a_cut_in_the_last_frame_reconciles(self, tmp_path_factory, share):
        directory = tmp_path_factory.mktemp("wal")
        raw, _, last, spent = self._journal_bytes(directory)
        # The frame's length varies with timings it records: draw a share.
        cut = last + 1 + int(share * (len(raw) - last - 1))
        path = directory / "cut.wal"
        path.write_bytes(raw[:cut])
        journal = PrivacyJournal(path)
        restored = PlanScheduler(SessionManager()).restore_session(
            _property_relation(), journal=journal
        )
        journal.close()
        assert (journal.truncated_records, journal.truncated_bytes) == (1, cut - last)
        assert reconcile(restored)["exact"]
        assert restored.budget_consumed() == spent
        assert restored.recovery_info["orphaned_events"] == []

    def test_a_flipped_raw_byte_fails_the_crc(self, tmp_path):
        raw, first, last, _ = self._journal_bytes(tmp_path)
        path = tmp_path / "flip.wal"
        # Every byte of the last frame's raw section, a sample of the first's
        # (whose damage also drops the intact frame after it).
        for start, kept, dropped, stride in ((first, 1, 2, 61), (last, 2, 1, 1)):
            section = raw.index(b"\n", start) + 1  # the header's newline
            assert raw[section - 2:section] == b"}\n"
            for offset in range(section, section + self.RAW, stride):
                flipped = bytearray(raw)
                flipped[offset] ^= 0xFF
                assert self._reopen(path, bytes(flipped)) == (kept, dropped, len(raw) - start)

    @pytest.mark.parametrize("length", [b"%d", b"%d0", b"99999999999999999999", b"9" * 24, b"-1"])
    def test_a_length_past_the_end_of_the_file_truncates(self, tmp_path, length):
        raw, first, last, _ = self._journal_bytes(tmp_path)
        path = tmp_path / "long.wal"
        for start, kept in ((first, 1), (last, 2)):
            field = start + 9
            size = raw[field:raw.index(b" ", field)]
            claimed = length % (len(raw) - field) if b"%" in length else length
            damaged = raw[:field] + claimed + raw[field + len(size):]
            # Nothing after the damaged length lays out as a frame.
            assert self._reopen(path, damaged) == (kept, 1, len(damaged) - start)
            restored = restore_session(_property_relation(), journal=PrivacyJournal(path))
            assert reconcile(restored)["exact"]
            restored.journal.close()

    def test_read_arrays_own_their_memory(self, tmp_path):
        raw, _, _, _ = self._journal_bytes(tmp_path)
        path = tmp_path / "read.wal"
        path.write_bytes(raw)
        with PrivacyJournal(path) as journal:
            releases = [p for p in commit_parts(journal.iter_records()) if p["kind"] == "release"]
        assert len(releases) == 2
        for release in releases:
            for array in (release["x_hat"], release["answers"]):
                assert array.flags.owndata and array.base is None
                assert array.nbytes == self.RAW // 2


# ======================================================================
# Commit frames: the one writer against the dict record.
# ======================================================================
#: text JSON must escape: every string holds a quote, a backslash, a
#: control character and non-ASCII text, then more drawn characters (no lone
#: surrogates: request seeds hash UTF-8 text).
HOSTILE_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\n\u2028'),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=6,
).map(lambda text: '"\\\x1f\u00e9' + text)
#: a tag that would add a field to a header spliced together unescaped.
SPLICE_TAG = '","epsilon_spent":0.0,"x":"'


def dict_commit_frame(seq, charges, rows, releases, events) -> bytes:
    """The frame of one commit built as a dict of per-part dicts and packed
    whole — the record ``pack_commit`` writes straight from the rows."""
    parts = [{"kind": "charge", "p": cost.primary, "d": cost.delta} for cost in charges]
    parts += [{"kind": "measurement", **vars(row)} for row in rows]
    parts += [{"kind": "release", **encode(vars(entry))} for entry in releases]
    parts += [{"kind": "event", **vars(event)} for event in events]
    return _encode_frame(*pack({"seq": seq, "kind": "commit", "records": parts}))


#: the fields each commit part's restore rebuilds, by kind: a part holds
#: these and its ``kind``, nothing else.
RESTORED_FIELDS = {
    "charge": {"p", "d"},
    "measurement": {f.name for f in fields(MeasurementRecord)},
    "release": {f.name for f in fields(CachedAnswer)},
    "event": {f.name for f in fields(SessionEvent)},
}


def packed(value) -> tuple[bytes, bytes]:
    """``value`` as its journal record holds it: the JSON header and the raw
    bytes of its arrays."""
    header, arrays = pack({"value": encode(value)})
    return header, b"".join(array.tobytes() for array in arrays)


def assert_commit_frames_are_dict_frames(raw: bytes, session) -> int:
    """Walk the journal bytes ``raw`` of ``session`` (every key released at
    most once) and check each commit frame against :func:`dict_commit_frame`
    of the session rows it holds, taken in order, and each part's keys
    against :data:`RESTORED_FIELDS`.  Returns the commit count."""
    ledger, history = session.kernel.budget_tracker.ledger(), session.kernel.history()
    charges = rows = events = commits = 0
    start, seq = 0, 0
    while (frame := _frame_at(raw, start)) is not None:
        header, newline, end = frame
        seq += 1
        record = unpack(raw[header:newline], memoryview(raw)[newline + 1:end])
        if record["kind"] == "commit":
            for part in record["records"]:
                assert part.keys() == RESTORED_FIELDS[part["kind"]] | {"kind"}
            kinds = Counter(part["kind"] for part in record["records"])
            releases = [
                session.releases[decode(part["key"])]
                for part in record["records"]
                if part["kind"] == "release"
            ]
            expected = dict_commit_frame(
                seq,
                ledger[charges:charges + kinds["charge"]],
                history[rows:rows + kinds["measurement"]],
                releases,
                session.events[events:events + kinds["event"]],
            )
            assert raw[start:end] == expected, f"commit at seq {seq}"
            charges += kinds["charge"]
            rows += kinds["measurement"]
            events += kinds["event"]
            commits += 1
        start = end
    assert start == len(raw)
    assert (charges, rows, events) == (len(ledger), len(history), len(session.events))
    return commits


class TestCommitFrames:
    """``pack_commit`` writes each commit straight from the session's rows:
    its frames are byte for byte those of the equivalent dict record, under
    every accountant, outcome and string a client can send; each part holds
    exactly the fields its restore rebuilds, and every release restores
    equal to the live one, field by field."""

    @settings(max_examples=15, deadline=None)
    @given(
        accountant=st.sampled_from(["pure", "approx", "zcdp"]),
        tenant=HOSTILE_TEXT,
        session_id=HOSTILE_TEXT,
        texts=st.lists(HOSTILE_TEXT, min_size=3, max_size=3),
        attach_after=st.integers(0, 3),
    )
    def test_each_commit_frame_is_its_dict_records_frame(
        self, tmp_path_factory, accountant, tenant, session_id, texts, attach_after
    ):
        relation = _property_relation()
        path = tmp_path_factory.mktemp("wal") / "j.wal"
        manager = SessionManager()
        scheduler = PlanScheduler(manager, executor="inline")
        session = manager.create_session(
            tenant, relation, 4.0, seed=3, session_id=session_id, accountant=accountant
        )
        fresh = [
            identity_request(session, epsilon=0.05, tag=texts[0]),
            identity_request(session, epsilon=0.06, request_id=texts[1]),
            QueryRequest(session.session_id, plan="Identity", epsilon=0.07, tag=texts[2]),
            identity_request(session, epsilon=0.08),
        ]
        # Fresh answers and their replays; the journal is attached to the
        # live session after ``attach_after`` of them (its whole state).
        for request in fresh[:attach_after]:
            scheduler.execute(request)
            scheduler.execute(replace(request, request_id=texts[2], tag=texts[1]))
        session.attach_journal(PrivacyJournal(path))
        for request in fresh[attach_after:]:
            scheduler.execute(request)
            scheduler.execute(replace(request, request_id=texts[0]))
        spliced = scheduler.execute(identity_request(session, epsilon=0.09, tag=SPLICE_TAG))
        # Refused, errored and rejected requests: ledgered, nothing released.
        for epsilon in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                scheduler.execute(identity_request(session, epsilon=epsilon, request_id=texts[1]))
        with pytest.raises(BudgetExceededError):
            scheduler.execute(identity_request(session, epsilon=100.0, tag=texts[0]))
        with pytest.raises(ValueError, match="columns"):
            scheduler.execute(
                identity_request(session, workload_params={"n": N + 1}, tag=SPLICE_TAG)
            )
        # A request that dies after its charge: the batch claims the orphan.
        faults = FaultInjector()
        faults.arm("kernel.after_charge", exception=WorkerDeath())
        session.kernel.fault_injector = faults
        (died,) = scheduler.execute_batch(
            [identity_request(session, epsilon=0.11)], return_exceptions=True
        )
        assert isinstance(died, WorkerDeath)
        session.kernel.fault_injector = None
        assert session.events[-1].plan == "(orphaned)"
        # A release whose info holds numpy scalars and an array.
        key = ("query", texts[0], (), None, 0.5)
        mark = session.kernel.num_measurements
        session.release(
            CachedAnswer(
                key,
                x_hat=np.arange(4.0),
                answers=None,
                seed=None,
                info={"scale": np.float64(1.5), "count": np.int64(3), SPLICE_TAG: np.arange(3)},
                history_start=mark,
                history_end=mark,
            )
        )
        session.commit()
        session.journal.close()

        raw = path.read_bytes()
        assert assert_commit_frames_are_dict_frames(raw, session) == len(session.journal) - 1

        restored = restore_session(relation, PrivacyJournal(path))
        assert reconcile(restored)["exact"]
        # Field by field, by repr: a refused request's NaN ε equals itself.
        assert [repr(vars(e)) for e in restored.events] == [
            repr(vars(e)) for e in session.events
        ]
        (tagged,) = [e for e in restored.events if e.tag == SPLICE_TAG and e.outcome == "ok"]
        assert tagged.epsilon_spent == spliced.epsilon_spent > 0
        assert [e.epsilon_spent for e in restored.events] == [
            e.epsilon_spent for e in session.events
        ]
        # Every release, field by field: x̂ and answers bytes, seed, info, span.
        assert restored.releases.keys() == session.releases.keys()
        for live in session.releases.values():
            entry = restored.releases[live.key]
            for field in RESTORED_FIELDS["release"]:
                assert packed(getattr(entry, field)) == packed(getattr(live, field)), field
        info = restored.releases[key].info
        assert info["scale"] == 1.5 and info["count"] == 3
        assert np.array_equal(info[SPLICE_TAG], np.arange(3))
        restored.journal.close()


# ======================================================================
# Fault injector.
# ======================================================================
class TestFaultInjector:
    def test_schedule_fires_exact_hits(self):
        faults = FaultInjector()
        faults.arm("kernel.before_charge", after=2, times=1)
        for _ in range(2):
            faults.fire("kernel.before_charge")
        with pytest.raises(InjectedFault):
            faults.fire("kernel.before_charge")
        faults.fire("kernel.before_charge")  # spent
        assert [f.hit for f in faults.fired] == [3]

    def test_delay_only_spec_does_not_raise(self):
        faults = FaultInjector()
        faults.arm("journal.fsync", delay=0.001)
        started = time.perf_counter()
        faults.fire("journal.fsync")
        assert time.perf_counter() - started >= 0.001

    def test_custom_exception_and_reset(self):
        faults = FaultInjector()
        faults.arm("scheduler.worker", exception=WorkerDeath())
        with pytest.raises(WorkerDeath):
            faults.fire("scheduler.worker")
        faults.reset()
        faults.fire("scheduler.worker")
        assert faults.fired == []


# ======================================================================
# Journal wiring through the service.
# ======================================================================
class TestJournaledSession:
    def test_a_fresh_session_journals_only_its_open_record(self, manager, relation):
        journal = PrivacyJournal(None)
        session = manager.create_session("acme", relation, 4.0, seed=0, journal=journal)
        assert [record["kind"] for record in journal.iter_records()] == ["open"]
        # Attaching a second journal to the still fresh session: the same.
        assert [record["kind"] for record in attached(session).iter_records()] == ["open"]

    @pytest.mark.parametrize("on_disk", [True, False], ids=["file", "memory"])
    def test_a_journal_that_holds_records_is_refused(self, manager, relation, tmp_path, on_disk):
        """A second session attached to a used journal would leave neither
        restorable; it is refused before a byte is written."""
        path = tmp_path / "a.wal" if on_disk else None
        journal = PrivacyJournal(path)
        scheduler = PlanScheduler(manager)
        a = manager.create_session("acme", relation, 4.0, seed=0, session_id="a", journal=journal)
        scheduler.execute(identity_request(a, epsilon=0.3))
        if on_disk:
            journal.close()
            journal = PrivacyJournal(path)

        def journal_bytes():
            return path.read_bytes() if on_disk else journal._file.getvalue()

        before = journal_bytes()
        refusal = re.escape(f"journal {path if on_disk else '<memory>'} already holds 2 records")
        with pytest.raises(ValueError, match=refusal):
            manager.create_session("acme", relation, 4.0, seed=0, session_id="b", journal=journal)
        assert "b" not in manager
        live = manager.create_session("acme", relation, 4.0, seed=1, session_id="c")
        scheduler.execute(identity_request(live))
        with pytest.raises(ValueError, match=refusal):
            live.attach_journal(journal)
        assert live.journal is None
        assert journal_bytes() == before and len(journal) == 2
        restored = restore_session(relation, journal)
        assert restored.budget_consumed() == a.budget_consumed() == pytest.approx(0.3)
        assert reconcile(restored)["exact"]
        restored.journal.close()

    def test_charges_are_journaled_before_release(self, manager, relation):
        journal = PrivacyJournal(None)
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=0, journal=journal
        )
        scheduler.execute(identity_request(session))
        records = list(journal.iter_records())
        assert [record["kind"] for record in records] == ["open", "commit"]
        assert [part["kind"] for part in records[1]["records"]] == [
            "charge", "measurement", "release", "event",
        ]

    def test_journal_append_failure_aborts_charge_cleanly(self, manager, relation):
        faults = FaultInjector()
        journal = PrivacyJournal(None, fault_injector=faults)
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=0, journal=journal
        )
        faults.arm("journal.append", after=0, times=1)  # the first commit
        with pytest.raises(InjectedFault):
            scheduler.execute(identity_request(session))
        # No response left the service, and the journal holds the open record
        # alone; the live session ledgered the request and still reconciles.
        assert len(journal) == 1
        assert session.budget_consumed() == pytest.approx(0.1)
        assert reconcile(session)["exact"]
        # The next commit writes both requests' parts, once.
        response = scheduler.execute(identity_request(session, epsilon=0.2))
        assert response.epsilon_spent == pytest.approx(0.2)
        (record,) = list(journal.iter_records())[1:]
        assert [part["kind"] for part in record["records"]] == [
            "charge", "charge", "measurement", "measurement",
            "release", "release", "event", "event",
        ]
        # A restore from the journal equals the live session.
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=journal)
        assert restored.recovery_info["orphaned_events"] == []
        assert (
            restored.kernel.budget_tracker.ledger()
            == session.kernel.budget_tracker.ledger()
        )
        assert restored.kernel.history() == session.kernel.history()
        assert restored.events == session.events
        replay = fresh.execute(identity_request(restored, epsilon=0.2))
        assert replay.cached and replay.x_hat.tobytes() == response.x_hat.tobytes()

    def test_fault_after_release_replays_from_cache_at_zero_epsilon(
        self, manager, relation, tmp_path
    ):
        """A request whose own commit fails raises after its answer was
        cached: asking again replays that answer and charges nothing."""
        faults = FaultInjector()
        path = tmp_path / "j.wal"
        journal = PrivacyJournal(path, fsync="always", fault_injector=faults)
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=0, journal=journal
        )
        # Hits count from arm time, so the attach-time commit is excluded:
        # the very next fsync is the one closing out this request.
        faults.arm("journal.fsync", after=0, times=1, exception=OSError("fsync"))
        with pytest.raises(OSError, match="fsync"):
            scheduler.execute(identity_request(session))
        assert session.budget_consumed() == pytest.approx(0.1)
        response = scheduler.execute(identity_request(session))
        assert response.cached
        assert session.budget_consumed() == pytest.approx(0.1)
        assert reconcile(session)["exact"]
        # A restore from the journal file equals the live session.
        journal.close()
        reopened = PrivacyJournal(path)
        restored = PlanScheduler(SessionManager()).restore_session(relation, journal=reopened)
        assert (
            restored.kernel.budget_tracker.ledger()
            == session.kernel.budget_tracker.ledger()
        )
        assert restored.kernel.history() == session.kernel.history()
        assert restored.events == session.events
        reopened.close()

    def test_fault_before_charge_spends_nothing_and_asking_again_answers(
        self, manager, relation
    ):
        """A request that fails before its first charge is ledgered at zero
        spend and caches nothing: asking again runs the plan and pays once."""
        faults = FaultInjector()
        journal = PrivacyJournal(None)
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=0, journal=journal
        )
        session.kernel.fault_injector = faults
        faults.arm("kernel.before_charge", times=1)
        with pytest.raises(InjectedFault):
            scheduler.execute(identity_request(session))
        assert session.budget_consumed() == 0.0
        response = scheduler.execute(identity_request(session))
        assert not response.cached
        assert response.epsilon_spent == pytest.approx(0.1)
        assert session.budget_consumed() == pytest.approx(0.1)
        assert [(event.outcome, event.error) for event in session.events] == [
            ("error", "InjectedFault"),
            ("ok", ""),
        ]
        assert reconcile(session)["exact"]
        restored = PlanScheduler(SessionManager()).restore_session(relation, journal=journal)
        assert restored.events == session.events

    def test_commit_journal_costs_under_a_tenth_of_a_dawa_request(self, tmp_path):
        """The default ``fsync="commit"`` journal adds at most 10% to a
        paper-scale request: DAWA at n=1024.  Paired design: in each of
        three rounds, every request index runs on a journal-free session and
        on a journaled one, so a slow spell of the machine slows both alike;
        which lane runs first alternates from index to index, so neither
        always gets the warmer caches.  The overhead is the median paired
        difference over the journal-free median, pooled over the rounds."""
        n = 1024
        relation = Relation.from_histogram(
            Schema.build([Attribute("v", n)]),
            np.random.default_rng(0).integers(0, 50, size=n),
        )

        def lane(journal=None):
            manager = SessionManager()
            session = manager.create_session("bench", relation, 3.0, seed=0, journal=journal)
            return PlanScheduler(manager), session

        def request(session, index):
            return dawa_request(
                session, epsilon=0.1 + index * 1e-6, workload_params={"n": n}, reuse=False
            )

        scheduler, session = lane()
        for index in range(5):  # warm-up
            scheduler.execute(request(session, index))
        bare, journaled = [], []
        for round_ in range(3):
            journal = PrivacyJournal(tmp_path / f"round{round_}.wal", fsync="commit")
            lanes = ((lane(), bare), (lane(journal), journaled))
            for index in range(15):
                for (scheduler, session), samples in lanes[:: 1 if index % 2 else -1]:
                    start = time.perf_counter()
                    scheduler.execute(request(session, index))
                    samples.append(time.perf_counter() - start)
            journal.close()
        paired = statistics.median(j - b for j, b in zip(journaled, bare))
        assert paired / statistics.median(bare) <= 0.10

    def test_cached_replay_appends_event_only(self, manager, relation):
        journal = PrivacyJournal(None)
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=0, journal=journal
        )
        scheduler.execute(identity_request(session))
        before = len(journal)
        scheduler.execute(identity_request(session))
        (record,) = list(journal.iter_records())[before:]
        assert record["kind"] == "commit"
        (part,) = record["records"]
        assert part["kind"] == "event" and part["outcome"] == "cached"
        assert "cached" not in part

    @pytest.mark.parametrize("case, outcome, plan, error", OUTCOME_CASES)
    def test_each_request_appends_one_commit_record(
        self, manager, relation, case, outcome, plan, error
    ):
        """Whatever its outcome, a request appends exactly one record: its
        ledger and history bracket, its release when answered, its event."""
        faults = FaultInjector()
        journal = PrivacyJournal(None)
        scheduler = PlanScheduler(manager, executor="inline")
        session = manager.create_session(
            "acme", relation, 4.0, seed=0, journal=journal
        )
        session.kernel.fault_injector = faults
        request = arrange_outcome(scheduler, session, faults, case)
        kernel = session.kernel
        seq = len(journal)
        charges, rows = kernel.budget_tracker.num_charges, kernel.num_measurements
        response = None
        if error is None:
            response = scheduler.execute(request)
        else:
            with pytest.raises(error):
                scheduler.execute(request)

        (record,) = list(journal.iter_records())[seq:]
        assert record["kind"] == "commit"
        parts = record["records"]
        order = ["charge", "measurement", "release", "event"]
        kinds = [part["kind"] for part in parts]
        assert kinds == sorted(kinds, key=order.index)
        by_kind = {kind: [part for part in parts if part["kind"] == kind] for kind in order}
        assert [(part["p"], part["d"]) for part in by_kind["charge"]] == [
            (cost.primary, cost.delta) for cost in kernel.budget_tracker.ledger()[charges:]
        ]
        assert [
            {key: value for key, value in part.items() if key != "kind"}
            for part in by_kind["measurement"]
        ] == [vars(row) for row in kernel.history()[rows:]]
        (event,) = by_kind["event"]
        assert {key: value for key, value in event.items() if key != "kind"} == vars(
            session.events[-1]
        )
        if outcome == "ok":
            (release,) = by_kind["release"]
            assert decode(release["key"]) == request.cache_key()
            assert (release["history_start"], release["history_end"]) == (
                rows, len(kernel.history())
            )
            assert release["x_hat"].tobytes() == response.x_hat.tobytes()
        else:
            assert by_kind["release"] == []


# ======================================================================
# Restore.
# ======================================================================
class TestRestore:
    def _run_session(self, manager, relation, journal, requests=3):
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=7, journal=journal
        )
        responses = [
            scheduler.execute(identity_request(session, epsilon=0.1 * (i + 1)))
            for i in range(requests)
        ]
        return scheduler, session, responses

    def test_journal_only_restore(self, manager, relation, tmp_path):
        path = tmp_path / "j.wal"
        journal = PrivacyJournal(path)
        scheduler, session, responses = self._run_session(manager, relation, journal)
        journal.close()

        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=PrivacyJournal(path))
        assert restored.budget_consumed() == pytest.approx(session.budget_consumed())
        assert reconcile(restored)["exact"]
        for i, original in enumerate(responses):
            replay = fresh.execute(identity_request(restored, epsilon=0.1 * (i + 1)))
            assert replay.cached
            assert replay.x_hat.tobytes() == original.x_hat.tobytes()
            assert replay.answers.tobytes() == original.answers.tobytes()

    def test_journal_attached_mid_life_restores_the_whole_session(self, manager, relation):
        """A journal attached after a request holds that request too: the
        restore spends what the live session spent, reconciles exactly and
        replays both answers byte-identically at zero ε."""
        scheduler = PlanScheduler(manager, executor="inline")
        session = manager.create_session("acme", relation, 4.0, seed=7)
        before = scheduler.execute(identity_request(session, epsilon=0.7))
        journal = attached(session)
        after = scheduler.execute(identity_request(session, epsilon=0.2))
        kinds = [record["kind"] for record in journal.iter_records()]
        assert kinds == ["open", "commit", "commit"]

        fresh = PlanScheduler(SessionManager(), executor="inline")
        restored = fresh.restore_session(relation, journal=journal)
        assert restored.budget_consumed() == session.budget_consumed() == pytest.approx(0.9)
        assert reconcile(restored)["exact"]
        assert restored.events == session.events
        assert restored.recovery_info["orphaned_events"] == []
        for epsilon, original in ((0.7, before), (0.2, after)):
            replay = fresh.execute(identity_request(restored, epsilon=epsilon))
            assert replay.cached and replay.epsilon_spent == 0.0
            assert replay.x_hat.tobytes() == original.x_hat.tobytes()
            assert replay.answers.tobytes() == original.answers.tobytes()
        assert restored.budget_consumed() == session.budget_consumed()

    def test_attach_journal_writes_every_release(self, manager, relation):
        scheduler, session, responses = self._run_session(manager, relation, None)
        assert scheduler.execute(identity_request(session, epsilon=0.1)).cached
        (commit,) = list(attached(session).iter_records())[1:]
        releases = [part for part in commit["records"] if part["kind"] == "release"]
        assert len(releases) == len(session.releases) == len(responses) == 3
        by_key = {decode(part["key"]): part for part in releases}
        assert set(by_key) == set(session.releases)
        for key, entry in session.releases.items():
            assert by_key[key]["x_hat"].tobytes() == entry.x_hat.tobytes()

    def test_a_release_only_session_journals_its_release(self, manager, relation):
        """Attaching a journal to a session whose only state is a release
        writes that release: the restore holds it, and it replays
        byte-identically at zero ε."""
        session = manager.create_session("acme", relation, 4.0, seed=7)
        request = identity_request(session)
        x_hat = np.arange(float(N))
        answers = np.cumsum(x_hat)
        session.release(CachedAnswer(request.cache_key(), x_hat, answers, 5, {"seed": 5}, 0, 0))
        journal = attached(session)
        assert [record["kind"] for record in journal.iter_records()] == ["open", "commit"]

        fresh = PlanScheduler(SessionManager(), executor="inline")
        restored = fresh.restore_session(relation, journal=journal)
        assert len(restored.releases) == len(session.releases) == 1
        replay = fresh.execute(identity_request(restored))
        assert replay.cached and replay.epsilon_spent == 0.0
        assert replay.x_hat.tobytes() == x_hat.tobytes()
        assert replay.answers.tobytes() == answers.tobytes()
        assert replay.seed == 5 and replay.info == {"seed": 5}
        assert restored.budget_consumed() == 0.0 and reconcile(restored)["exact"]

    #: A field older versions wrote on every release and audit event (split
    #: so a code search for the removed field finds no live use).
    LEGACY_FIELD = "shard" "_id"

    def _assert_replays_free(self, fresh, restored, original):
        assert reconcile(restored)["exact"]
        spent = restored.budget_consumed()
        replay = fresh.execute(identity_request(restored, epsilon=0.1))
        assert replay.cached and replay.epsilon_spent == 0.0
        assert replay.x_hat.tobytes() == original.x_hat.tobytes()
        assert replay.answers.tobytes() == original.answers.tobytes()
        assert restored.budget_consumed() == spent

    def _add_legacy_fields(self, records) -> Counter:
        """Edit the events and releases inside ``records``' commit records
        as older versions wrote them; returns the edits per kind."""
        edited = Counter()
        for part in commit_parts(records):
            if part["kind"] in ("event", "release"):
                part[self.LEGACY_FIELD] = None
                edited[part["kind"]] += 1
        return edited

    def test_journal_with_legacy_fields_restores(self, manager, relation):
        journal = PrivacyJournal(None)
        _, _, responses = self._run_session(manager, relation, journal, 1)
        records = list(journal.iter_records())
        assert self._add_legacy_fields(records) == {"event": 1, "release": 1}
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=rewritten(records))
        self._assert_replays_free(fresh, restored, responses[0])

    def test_journal_with_unknown_measurement_fields_restores(self, manager, relation):
        journal = PrivacyJournal(None)
        _, session, responses = self._run_session(manager, relation, journal, 2)
        records = list(journal.iter_records())
        measurements = [
            part for part in commit_parts(records) if part["kind"] == "measurement"
        ]
        assert len(measurements) == 2
        for part in measurements:
            part["written_by"] = "a later version"
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=rewritten(records))
        assert restored.kernel.history() == session.kernel.history()
        self._assert_replays_free(fresh, restored, responses[0])

    def test_commit_record_without_records_raises_recovery_error(self, manager, relation):
        journal = PrivacyJournal(None)
        self._run_session(manager, relation, journal, 1)
        _, commit = records = list(journal.iter_records())
        assert commit["kind"] == "commit"
        del commit["records"]
        with pytest.raises(RecoveryError, match="'commit' record"):
            restore_session(relation, journal=rewritten(records))

    def test_restore_reads_field_names_once_per_class(self, manager, relation):
        from repro.durability.records import _field_names

        journal = PrivacyJournal(None)
        self._run_session(manager, relation, journal, 3)
        _field_names.cache_clear()
        PlanScheduler(SessionManager()).restore_session(relation, journal=journal)
        info = _field_names.cache_info()
        # Events, measurements and releases: one lookup each, then hits.
        assert info.misses == info.currsize == 3
        assert info.hits > 0

    def test_equal_matrix_params_replay_before_and_after_a_journal_restore(
        self, manager, relation, tmp_path
    ):
        """A matrix plan parameter keys its release by content: a second,
        equal matrix object replays at zero ε, live and after a restore."""
        rows = np.random.default_rng(5).integers(0, 2, size=(4, N)).astype(float)
        path = tmp_path / "j.wal"
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=7, journal=PrivacyJournal(path)
        )
        first = scheduler.execute(mwem_request(session, DenseMatrix(rows)))
        spent = session.budget_consumed()
        live = scheduler.execute(mwem_request(session, DenseMatrix(rows.copy())))
        assert live.cached and session.budget_consumed() == spent
        session.journal.close()

        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=PrivacyJournal(path))
        replay = fresh.execute(mwem_request(restored, DenseMatrix(rows.copy())))
        assert replay.cached
        assert replay.x_hat.tobytes() == first.x_hat.tobytes()
        assert restored.budget_consumed() == spent
        assert reconcile(restored)["exact"]

    def test_bytes_plan_param_replays_after_a_journal_restore(
        self, manager, relation, tmp_path, monkeypatch
    ):
        """A ``bytes`` plan parameter reaches the request key; its release
        is journaled under that key and replays at zero ε after a restore."""
        entry = PLANS_BY_NAME["Identity"]
        monkeypatch.setitem(
            PLANS_BY_NAME,
            "Identity",
            replace(entry, factory=lambda label=b"", **params: IdentityPlan(**params)),
        )
        session = manager.create_session(
            "acme", relation, 4.0, seed=7, journal=PrivacyJournal(tmp_path / "j.wal")
        )
        request = identity_request(session, plan_params={"label": b"\x00tenant\xff"})
        assert "b'\\x00tenant\\xff'" in repr(request.cache_key())
        first = PlanScheduler(manager).execute(request)
        session.journal.close()

        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=PrivacyJournal(tmp_path / "j.wal"))
        assert set(restored.releases) == {request.cache_key()}
        replay = fresh.execute(request)
        assert replay.cached and replay.epsilon_spent == 0.0
        assert replay.x_hat.tobytes() == first.x_hat.tobytes()
        assert restored.budget_consumed() == session.budget_consumed()
        restored.journal.close()

    def test_a_param_the_journal_cannot_restore_is_refused_before_any_charge(
        self, manager, relation, tmp_path
    ):
        """A ``Fraction`` would key the live release, but the journal writes
        a type it does not know as its repr: restored, the release sat under
        ``('partition_share', 'Fraction(1, 4)')``, and the same request was
        answered again at fresh ε with fresh noise.  So the request is
        refused first, in its plan and in its workload parameters."""
        session = manager.create_session(
            "acme", relation, 4.0, seed=7, journal=PrivacyJournal(tmp_path / "j.wal")
        )
        scheduler = PlanScheduler(manager)
        for request in (
            dawa_request(session, plan_params={"partition_share": Fraction(1, 4)}),
            identity_request(session, workload_params={"n": Fraction(N)}),
        ):
            with pytest.raises(TypeError, match="Fraction"):
                scheduler.execute(request)
        assert session.budget_consumed() == 0.0
        assert session.kernel.num_measurements == 0
        assert not session.releases
        # The same request with a plain float is answered, and replays
        # after a restore.
        request = dawa_request(session, plan_params={"partition_share": 0.25})
        first = scheduler.execute(request)
        session.journal.close()
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=PrivacyJournal(tmp_path / "j.wal"))
        replay = fresh.execute(request)
        assert replay.cached and replay.epsilon_spent == 0.0
        assert replay.x_hat.tobytes() == first.x_hat.tobytes()
        restored.journal.close()

    def test_a_refused_request_leaves_one_rejected_event_that_the_journal_restores(
        self, manager, relation, tmp_path
    ):
        """A request its key or its plan refuses (an unknown plan parameter,
        a ``Fraction``, a set) still uses up a request id, so it is ledgered
        as ``rejected`` with zero spend: every id has exactly one event,
        live and restored."""
        session = manager.create_session(
            "acme", relation, 4.0, seed=7, journal=PrivacyJournal(tmp_path / "j.wal")
        )
        scheduler = PlanScheduler(manager)
        scheduler.execute(identity_request(session))
        for overrides, error in (
            ({"plan_params": {"delta": 1e-6}}, TypeError),
            ({"plan_params": {"partition_share": Fraction(1, 4)}}, TypeError),
            ({"workload_params": {"n": {N}}}, TypeError),
        ):
            with pytest.raises(error):
                scheduler.execute(dawa_request(session, **overrides))
        answered, *refused = session.events
        assert [event.request_id.rsplit("-", 1)[1] for event in session.events] == [
            "r1", "r2", "r3", "r4"
        ]
        assert answered.outcome == "ok"
        for event in refused:
            assert event.outcome == "rejected" and event.error == "TypeError"
            assert event.epsilon_spent == 0.0
            assert event.history_start == event.history_end == answered.history_end
        assert reconcile(session)["exact"]
        session.journal.close()
        restored = PlanScheduler(SessionManager()).restore_session(
            relation, journal=PrivacyJournal(tmp_path / "j.wal")
        )
        assert [
            (event.request_id, event.outcome, event.epsilon_spent) for event in restored.events
        ] == [(event.request_id, event.outcome, event.epsilon_spent) for event in session.events]
        assert reconcile(restored)["exact"]
        restored.journal.close()

    def test_restored_charges_keep_spending_from_true_remainder(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 1.0, seed=7)
        scheduler.execute(identity_request(session, epsilon=0.7))
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=attached(session))
        # 0.3 remains: a 0.4 request must be rejected post-restore.
        from repro.private import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            fresh.execute(identity_request(restored, epsilon=0.4))
        fresh.execute(identity_request(restored, epsilon=0.3))
        assert reconcile(restored)["exact"]

    def test_zcdp_session_restores(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 2.0, seed=3, accountant="zcdp", delta=1e-6
        )
        scheduler.execute(identity_request(session))
        restored = PlanScheduler(SessionManager()).restore_session(
            relation, journal=attached(session)
        )
        assert restored.accountant.name == "zcdp"
        assert restored.budget_consumed() == pytest.approx(session.budget_consumed())
        assert reconcile(restored)["exact"]

    def test_accountant_mismatch_raises(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=7)
        scheduler.execute(identity_request(session))
        records = list(attached(session).iter_records())
        opening = records[0]
        assert opening["kind"] == "open"
        opening["describe"]["epsilon_budget"] = 99.0
        with pytest.raises(RecoveryError):
            restore_session(relation, journal=rewritten(records))

    def test_manager_refuses_duplicate_adoption(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=7)
        scheduler.execute(identity_request(session))
        with pytest.raises(ValueError, match="already exists"):
            scheduler.restore_session(relation, journal=attached(session))

    def test_restored_request_ids_do_not_collide(self, manager, relation, tmp_path):
        journal = PrivacyJournal(tmp_path / "j.wal")
        scheduler, session, _ = self._run_session(manager, relation, journal)
        journal.close()
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(
            relation, journal=PrivacyJournal(tmp_path / "j.wal")
        )
        seen = {event.request_id for event in restored.events}
        fresh_response = fresh.execute(
            identity_request(restored, epsilon=0.05, reuse=False)
        )
        assert fresh_response.request_id not in seen

    def test_restored_stub_sources_reject_measurement(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=7)
        scheduler.execute(identity_request(session))
        journal = attached(session)
        restored = restore_session(relation, journal=journal)
        from repro.private import UnknownSourceError
        from repro.workload.builders import identity_workload

        # A restore rebuilds no pre-restore source: their names are history.
        pre_restore = [
            part["source"]
            for part in commit_parts(journal.iter_records())
            if part["kind"] == "measurement" and part["source"] != "root"
        ]
        assert pre_restore
        with pytest.raises(UnknownSourceError):
            restored.kernel.measure_vector_laplace(
                pre_restore[0], identity_workload(N), 0.1
            )


class TestRestoreVerifies:
    """Restore has no bypass: a journal that does not restore to a session
    reconciling exactly raises :class:`RecoveryError`, and the manager adopts
    nothing.  A damaged journal stays readable through ``iter_records``,
    which verifies nothing."""

    def _journaled(self, manager, relation, journal=None):
        journal = journal if journal is not None else PrivacyJournal(None)
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=7, journal=journal
        )
        for epsilon in (0.1, 0.2):
            scheduler.execute(identity_request(session, epsilon=epsilon))
        return scheduler, session, journal

    def test_stream_without_open_record_raises(self, manager, relation):
        _, _, journal = self._journaled(manager, relation)
        records = list(journal.iter_records())
        assert records[0]["kind"] == "open"
        for stream in (PrivacyJournal(None), rewritten(records[1:])):
            with pytest.raises(RecoveryError, match="no 'open' record"):
                restore_session(relation, journal=stream)

    def test_second_open_record_raises(self, manager, relation):
        _, _, journal = self._journaled(manager, relation)
        records = list(journal.iter_records())
        with pytest.raises(RecoveryError, match="unexpected 'open' record"):
            restore_session(relation, journal=rewritten(records + records[:1]))

    def test_top_level_record_past_the_open_record_must_be_a_commit(self, manager, relation):
        _, _, journal = self._journaled(manager, relation)
        records = list(journal.iter_records())
        (charge,) = [part for part in commit_parts(records) if part["kind"] == "charge"][:1]
        with pytest.raises(RecoveryError, match="unexpected 'charge' record at seq 4"):
            restore_session(relation, journal=rewritten(records + [charge]))

    def test_unknown_record_kind_raises(self, manager, relation):
        _, _, journal = self._journaled(manager, relation)
        records = list(journal.iter_records())
        records[-1]["records"].append({"kind": "rollback"})
        with pytest.raises(RecoveryError, match="unknown record kind 'rollback'"):
            restore_session(relation, journal=rewritten(records))

    def test_events_claiming_more_than_the_ledger_raise(self, manager, relation):
        _, _, journal = self._journaled(manager, relation)
        records = list(journal.iter_records())
        event = next(part for part in commit_parts(records) if part["kind"] == "event")
        event["epsilon_spent"] *= 2
        with pytest.raises(RecoveryError, match="does not reconcile"):
            restore_session(relation, journal=rewritten(records))

    @pytest.mark.parametrize("kind, field", [("event", "outcome"), ("measurement", "noise_scale")])
    def test_a_part_missing_a_required_field_raises_and_adopts_nothing(
        self, manager, relation, kind, field
    ):
        """An event written before events had an ``outcome`` cannot restore:
        the error names the kind and the field, and nothing is adopted."""
        _, session, journal = self._journaled(manager, relation)
        records = list(journal.iter_records())
        part = next(part for part in commit_parts(records) if part["kind"] == kind)
        del part[field]
        fresh = PlanScheduler(SessionManager())
        with pytest.raises(RecoveryError, match=f"'{kind}' record has no '{field}' field"):
            fresh.restore_session(relation, journal=rewritten(records))
        assert len(fresh.manager) == 0

    def test_a_nested_release_part_is_refused_and_adopts_nothing(self, manager, relation):
        """A release part as journals wrote it before releases were flat —
        its answer nested in a ``response`` record — names the first field
        it lacks, and nothing is adopted."""
        _, session, journal = self._journaled(manager, relation)
        records = list(journal.iter_records())
        nested = 0
        for record in records[1:]:
            parts = record["records"]
            for index, part in enumerate(parts):
                if part["kind"] != "release":
                    continue
                parts[index] = {
                    "kind": "release",
                    "key": part["key"],
                    "response": {
                        "request_id": "acme-r1",
                        "session_id": session.session_id,
                        "plan": "Identity",
                        "epsilon_requested": 0.1,
                        "epsilon_spent": 0.1,
                        "x_hat": part["x_hat"],
                        "answers": part["answers"],
                        "cached": False,
                        "seed": part["seed"],
                        "info": part["info"],
                        "elapsed_seconds": 0.001,
                        "accounting": {"accountant": "pure"},
                        "trace_id": None,
                    },
                    "history_start": part["history_start"],
                    "history_end": part["history_end"],
                }
                nested += 1
        assert nested == 2
        fresh = PlanScheduler(SessionManager())
        with pytest.raises(RecoveryError, match="'release' record has no 'x_hat' field"):
            fresh.restore_session(relation, journal=rewritten(records))
        assert len(fresh.manager) == 0

    def test_failed_restore_adopts_nothing(self, manager, relation):
        _, session, journal = self._journaled(manager, relation)
        records = list(journal.iter_records())
        records[0]["describe"]["epsilon_budget"] = 99.0
        fresh = PlanScheduler(SessionManager())
        with pytest.raises(RecoveryError, match="accountant does not match"):
            fresh.restore_session(relation, journal=rewritten(records))
        assert session.session_id not in fresh.manager
        restored = fresh.restore_session(relation, journal=journal)
        assert fresh.manager.get(session.session_id) is restored

    def test_damaged_journal_stays_readable_through_iter_records(
        self, manager, relation, tmp_path
    ):
        _, session, journal = self._journaled(
            manager, relation, PrivacyJournal(tmp_path / "j.wal")
        )
        records = list(journal.iter_records())
        journal.close()
        records[0]["describe"]["epsilon_budget"] = 99.0
        damaged = PrivacyJournal(tmp_path / "damaged.wal")
        for record in records:
            damaged.append({key: value for key, value in record.items() if key != "seq"})
        damaged.close()
        with PrivacyJournal(tmp_path / "damaged.wal") as reopened:
            with pytest.raises(RecoveryError, match="accountant does not match"):
                restore_session(relation, journal=reopened)
            read = list(reopened.iter_records())
        assert [record["kind"] for record in read] == ["open", "commit", "commit"]
        assert read[0]["describe"]["epsilon_budget"] == 99.0
        events = [part for part in commit_parts(read) if part["kind"] == "event"]
        assert [part["request_id"] for part in events] == [
            event.request_id for event in session.events
        ]


class TestOneRestorePath:
    """A journal written from a session's first request and one attached to
    it later restore the same session, one way."""

    def _journaled(self, relation, path):
        """A journaled session with Identity and DAWA history and one cached
        replay; returns its scheduler, session and a second, in-memory
        journal attached at its end."""
        manager = SessionManager()
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=7, journal=PrivacyJournal(path)
        )
        scheduler.execute(identity_request(session))
        scheduler.execute(dawa_request(session))
        assert scheduler.execute(identity_request(session)).cached
        session.journal.close()
        return scheduler, session, attached(session)

    def _restore(self, relation, path, compacted, source):
        fresh = PlanScheduler(SessionManager())
        if source == "attached":
            return fresh, fresh.restore_session(relation, journal=compacted)
        return fresh, fresh.restore_session(relation, journal=PrivacyJournal(path))

    @pytest.mark.parametrize("source", ["attached", "journal"])
    def test_reports_work_on_a_restored_session(self, relation, tmp_path, source):
        path = tmp_path / "j.wal"
        _, session, compacted = self._journaled(relation, path)
        fresh, restored = self._restore(relation, path, compacted, source)
        report = session_report(restored)
        assert json.loads(json.dumps(report))["session_id"] == restored.session_id
        assert fresh.manager.sessions() == [restored]
        assert "restored" in audit_kernel(restored.kernel).to_text()
        # Each pre-restore source is reported under its own name, priced by
        # its own history rows, with no lineage or stability invented.
        history = restored.kernel.history()
        sources = {entry["name"]: entry for entry in report["kernel_audit"]["sources"]}
        measured = {record.source for record in history}
        assert len(measured) > 1
        for name in measured:
            entry = sources[name]
            assert entry["kind"] == "restored"
            assert entry["lineage"] == [] and entry["cumulative_stability"] is None
            assert entry["consumed"] == math.fsum(
                record.cost for record in history if record.source == name
            )
        assert sources["root"]["consumed"] == session.budget_consumed()

    @pytest.mark.parametrize("source", ["attached", "journal"])
    def test_post_restore_sources_never_reuse_a_pre_restore_name(
        self, relation, tmp_path, source
    ):
        path = tmp_path / "j.wal"
        _, _, compacted = self._journaled(relation, path)
        fresh, restored = self._restore(relation, path, compacted, source)
        before = len(restored.kernel.history())
        fresh.execute(identity_request(restored, epsilon=0.2, reuse=False))
        history = restored.kernel.history()
        pre = {record.source for record in history[:before]}
        post = {record.source for record in history[before:]}
        assert post and pre.isdisjoint(post)
        kinds = {
            entry["name"]: entry["kind"]
            for entry in session_report(restored)["kernel_audit"]["sources"]
        }
        assert {kinds[name] for name in pre} == {"restored"}
        assert {kinds[name] for name in post} == {"vector"}

    def test_attached_and_running_journals_restore_the_same_session(self, relation, tmp_path):
        path = tmp_path / "j.wal"
        _, session, compacted = self._journaled(relation, path)
        assert [record["kind"] for record in compacted.iter_records()] == ["open", "commit"]
        (by_attached, a), (by_journal, b) = (
            self._restore(relation, path, compacted, source)
            for source in ("attached", "journal")
        )

        def releases(restored):
            return {
                key: (
                    entry.history_start,
                    entry.history_end,
                    entry.x_hat.tobytes(),
                    entry.answers.tobytes(),
                )
                for key, entry in restored.releases.items()
            }

        assert a.kernel.budget_tracker.ledger() == b.kernel.budget_tracker.ledger()
        assert a.kernel.history() == b.kernel.history() == session.kernel.history()
        assert a.events == b.events == session.events
        assert a.request_counter == b.request_counter == session.request_counter
        assert releases(a) == releases(b) == releases(session)
        assert len(releases(a)) == 2
        assert session_report(a) == session_report(b)


# ======================================================================
# Crash window: orphaned spend.
# ======================================================================
class TestOrphanClaiming:
    def test_worker_death_after_charge_is_claimed_in_batch(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        session.kernel.fault_injector = faults
        # Die inside the charge-ahead window of the second DAWA charge.
        faults.arm("kernel.after_charge", after=1, exception=WorkerDeath())
        results = scheduler.execute_batch(
            [dawa_request(session, epsilon=0.4)], return_exceptions=True
        )
        assert isinstance(results[0], WorkerDeath)
        failure = RequestFailure.of(results[0])
        assert failure is not None and not failure.ledgered
        assert failure.epsilon_spent > 0.0
        # The dead request's spend was claimed: the ledger balances exactly.
        assert session.budget_consumed() > 0.0
        assert reconcile(session)["exact"]
        orphan = session.events[-1]
        assert orphan.error == "WorkerDeath"
        assert orphan.epsilon_spent == pytest.approx(failure.epsilon_spent)
        # The odometer is a view of the audit trail, claims included.
        odometer = telemetry_report(scheduler)["privacy_odometer"]["acme"]
        assert odometer["total_spent"] == math.fsum(
            event.epsilon_spent for event in session.events
        )
        assert odometer["requests"] == len(session.events)

    def test_worker_death_at_entry_spends_nothing(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, fault_injector=faults)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        faults.arm("scheduler.worker", exception=WorkerDeath())
        results = scheduler.execute_batch(
            [identity_request(session)], return_exceptions=True
        )
        assert isinstance(results[0], WorkerDeath)
        assert session.budget_consumed() == 0.0
        assert session.events == []
        assert reconcile(session)["exact"]

    def test_batch_with_dead_worker_keeps_other_requests(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager)
        session_a = manager.create_session("acme", relation, 4.0, seed=0)
        session_b = manager.create_session("beta", relation, 4.0, seed=1)
        session_a.kernel.fault_injector = faults
        faults.arm("kernel.after_charge", exception=WorkerDeath())
        results = scheduler.execute_batch(
            [identity_request(session_a), identity_request(session_b)],
            return_exceptions=True,
        )
        assert isinstance(results[0], WorkerDeath)
        assert results[1].epsilon_spent == pytest.approx(0.1)
        assert reconcile(session_a)["exact"]
        assert reconcile(session_b)["exact"]

    def test_without_exceptions_flag_worker_death_reraises(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, fault_injector=faults)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        faults.arm("scheduler.worker", exception=WorkerDeath())
        with pytest.raises(WorkerDeath):
            scheduler.execute_batch([identity_request(session)])
        assert reconcile(session)["exact"]

    def test_orphans_survive_crash_and_restore(self, manager, relation, tmp_path):
        path = tmp_path / "j.wal"
        faults = FaultInjector()
        journal = PrivacyJournal(path)
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=0, journal=journal
        )
        session.kernel.fault_injector = faults
        scheduler.execute(identity_request(session))
        # The crash: a request dies inside the charge-ahead window and the
        # process never gets to ledger anything about it.
        faults.arm("kernel.after_charge", exception=WorkerDeath("crash"))
        with pytest.raises(WorkerDeath):
            scheduler.execute(identity_request(session, epsilon=0.2, reuse=False))
        journal.close()

        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=PrivacyJournal(path))
        # The journaled-but-unclaimed charge was claimed by a synthesized
        # errored event: budget is wasted, never leaked, and the ledger is
        # exact.
        assert restored.budget_consumed() == pytest.approx(0.1 + 0.2)
        assert reconcile(restored)["exact"]
        (orphan,) = restored.recovery_info["orphaned_events"]
        assert orphan["epsilon_spent"] == pytest.approx(0.2)
        assert orphan["error"] == "CrashRecovery"

    def test_tiny_budget_orphan_is_claimed_in_batch(self, manager, relation):
        session = dying_tiny_zcdp_session(manager, relation)
        results = PlanScheduler(manager).execute_batch(
            [identity_request(session, epsilon=4e-5)], return_exceptions=True
        )
        assert isinstance(results[0], WorkerDeath)
        charged = session.budget_consumed()
        assert charged == pytest.approx(8e-10)
        (orphan,) = session.events
        assert orphan.error == "WorkerDeath" and orphan.epsilon_spent == charged
        assert reconcile(session)["exact"]

    def test_tiny_budget_orphan_is_claimed_on_restore(self, manager, relation, tmp_path):
        path = tmp_path / "j.wal"
        session = dying_tiny_zcdp_session(manager, relation, journal=PrivacyJournal(path))
        with pytest.raises(WorkerDeath):
            PlanScheduler(manager).execute(identity_request(session, epsilon=4e-5))
        session.journal.close()

        restored = PlanScheduler(SessionManager()).restore_session(
            relation, journal=PrivacyJournal(path)
        )
        (orphan,) = restored.recovery_info["orphaned_events"]
        assert orphan["error"] == "CrashRecovery"
        assert orphan["epsilon_spent"] == restored.budget_consumed()
        assert restored.budget_consumed() == pytest.approx(8e-10)
        assert reconcile(restored)["exact"]
        restored.journal.close()

    def test_unclaimed_tiny_spend_does_not_reconcile(self, manager, relation):
        # ``execute`` lets a dead worker's exception through and claims
        # nothing, so the charge stays unclaimed until a restore.
        session = dying_tiny_zcdp_session(manager, relation)
        with pytest.raises(WorkerDeath):
            PlanScheduler(manager).execute(identity_request(session, epsilon=4e-5))
        assert session.events == [] and session.budget_consumed() > 0.0
        assert not reconcile(session)["exact"]


# ======================================================================
# Session close semantics.
# ======================================================================
class TestCloseSemantics:
    def test_new_requests_rejected_after_close_begins(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        session.begin_close()
        with pytest.raises(SessionClosedError):
            scheduler.execute(identity_request(session))
        # The rejection is not ledgered: the request never touched the session.
        assert session.events == []

    def test_drain_close_waits_for_inflight_request(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        release = threading.Event()
        entered = threading.Event()
        original_run = scheduler._run_locked

        def slow_run(session_, request, request_id, queued_at, root):
            entered.set()
            release.wait(timeout=5)
            return original_run(session_, request, request_id, queued_at, root)

        scheduler._run_locked = slow_run
        worker = threading.Thread(
            target=lambda: scheduler.execute(identity_request(session))
        )
        worker.start()
        assert entered.wait(timeout=5)
        closer_done = threading.Event()
        closed_session = []

        def close():
            closed_session.append(manager.close(session.session_id))
            closer_done.set()

        closer = threading.Thread(target=close)
        closer.start()
        # The close is draining: it must not finish while the request runs.
        assert not closer_done.wait(timeout=0.2)
        release.set()
        worker.join(timeout=5)
        assert closer_done.wait(timeout=5)
        closer.join(timeout=5)
        closed = closed_session[0]
        # The in-flight request was ledgered before the close completed.
        assert len(closed.events) == 1
        assert closed.events[0].error == ""
        assert reconcile(closed)["exact"]

    def test_requests_queued_behind_close_are_rejected(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        with session.lock:
            session.begin_close()
        with pytest.raises(SessionClosedError):
            scheduler.execute(identity_request(session))

    @pytest.mark.parametrize("drain", [False, True], ids=["no_drain", "drain_timeout"])
    def test_close_never_waits_past_its_bound(self, manager, relation, drain):
        journal = PrivacyJournal(None)
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 4.0, seed=0, journal=journal
        )
        release = threading.Event()
        entered = threading.Event()
        original_run = scheduler._run_locked

        def stalled_run(session_, request, request_id, queued_at, root):
            entered.set()
            release.wait(timeout=10)
            return original_run(session_, request, request_id, queued_at, root)

        scheduler._run_locked = stalled_run
        responses = []
        worker = threading.Thread(
            target=lambda: responses.append(scheduler.execute(identity_request(session)))
        )
        worker.start()
        try:
            assert entered.wait(timeout=5)
            started = time.perf_counter()
            closed = manager.close(session.session_id, drain=drain, timeout=0.2)
            assert time.perf_counter() - started < 2
            assert closed.closed
        finally:
            release.set()
            worker.join(timeout=5)
        # The stalled request finished, ledgered and committed its own record.
        assert len(responses) == 1
        assert [event.error for event in closed.events] == [""]
        assert reconcile(closed)["exact"]
        assert list(journal.iter_records())[-1]["kind"] == "commit"

    def test_non_drain_close_returns_immediately(self, manager, relation):
        scheduler = PlanScheduler(manager)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        scheduler.execute(identity_request(session))
        closed = manager.close(session.session_id, drain=False)
        assert closed.closed
        assert session.session_id not in manager


# ======================================================================
# Request-path order.
# ======================================================================
def _held_elsewhere(lock) -> bool:
    """Whether ``lock`` is held, probed from a fresh thread (an RLock always
    lets its owning thread back in)."""
    acquired = []

    def probe():
        got = lock.acquire(blocking=False)
        if got:
            lock.release()
        acquired.append(got)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join(timeout=5)
    return acquired == [False]


class TestRequestPathOrder:
    """The fixed order of one request: worker fault seam → closed check →
    session lock → root span → cache probe → plan run, then the journal
    commit in the root span's ``durability.commit`` child, still under the
    lock."""

    def test_worker_seam_fires_before_the_closed_check(self, manager, relation):
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, fault_injector=faults)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        session.begin_close()
        faults.arm("scheduler.worker", times=1)
        with pytest.raises(InjectedFault):
            scheduler.execute(identity_request(session))
        with pytest.raises(SessionClosedError):
            scheduler.execute(identity_request(session))
        assert [fired.point for fired in faults.fired] == ["scheduler.worker"]
        assert session.events == []

    def test_closed_rejection_is_neither_counted_nor_committed(self, manager, relation):
        scheduler = PlanScheduler(manager)
        journal = PrivacyJournal(None)
        session = manager.create_session("acme", relation, 4.0, seed=0, journal=journal)
        records = len(journal)
        session.begin_close()
        with pytest.raises(SessionClosedError):
            scheduler.execute(identity_request(session))
        report = telemetry_report(scheduler)
        snapshot = report["metrics"]
        assert not any(key.startswith("service_requests") for key in snapshot["counters"])
        assert not any(
            key.startswith("service_journal_commit_seconds") for key in snapshot["histograms"]
        )
        assert len(journal) == records
        assert report["privacy_odometer"] == {}

    @pytest.mark.parametrize("fails", [False, True], ids=["answered", "failed"])
    def test_journal_commits_inside_the_root_span_under_the_lock(
        self, manager, relation, fails
    ):
        tracer = Tracer()
        faults = FaultInjector()
        scheduler = PlanScheduler(manager, tracer=tracer)
        journal = PrivacyJournal(None)
        session = manager.create_session("acme", relation, 4.0, seed=0, journal=journal)
        session.kernel.fault_injector = faults
        commits = []
        original_commit = journal.commit

        def commit():
            finished = [span.name for span in tracer.spans()]
            commits.append((tracer.current_span(), finished, _held_elsewhere(session.lock)))
            original_commit()

        journal.commit = commit
        if fails:
            faults.arm("kernel.before_charge", times=1)
            with pytest.raises(InjectedFault):
                scheduler.execute(identity_request(session))
        else:
            scheduler.execute(identity_request(session))
        ((open_span, finished, held),) = commits
        assert "service.request" not in finished  # the root span was still open ...
        spans = {span.name: span for span in tracer.spans()}
        root, committed = spans["service.request"], spans["durability.commit"]
        # ... and the commit ran in its own child of it ...
        assert open_span.name == "durability.commit"
        assert open_span.span_id == committed.span_id
        assert committed.parent_id == root.span_id and committed.trace_id == root.trace_id
        assert root.start <= committed.start <= committed.end <= root.end
        assert committed.status == "ok"
        assert root.status == ("error" if fails else "ok")  # ... with the root's final status
        assert root.trace_id == session.events[-1].trace_id
        assert held  # ... while the session lock was still held

    @pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
    def test_run_locked_runs_under_the_lock_inside_the_root_span(
        self, manager, relation, traced
    ):
        tracer = Tracer() if traced else None
        scheduler = PlanScheduler(manager, tracer=tracer)
        session = manager.create_session("acme", relation, 4.0, seed=0)
        calls = []
        original_run = scheduler._run_locked

        def spy(session_, request, request_id, queued_at, root):
            active = tracer.current_span() if traced else None
            calls.append((root, active, _held_elsewhere(session_.lock)))
            return original_run(session_, request, request_id, queued_at, root)

        scheduler._run_locked = spy
        response = scheduler.execute(identity_request(session))
        ((root, active, held),) = calls
        assert held
        if traced:
            assert root is active and root.name == "service.request"
            assert response.trace_id == root.trace_id == session.events[-1].trace_id
        else:
            assert root is NOOP_SPAN
            assert response.trace_id is None and session.events[-1].trace_id is None


# ======================================================================
# Property suite: random fault schedules.
# ======================================================================
_FAULT_CHOICES = st.sampled_from(
    [
        ("kernel.before_charge", "fault"),
        ("kernel.after_charge", "fault"),
        ("kernel.after_charge", "death"),
        ("journal.fsync", "oserror"),
        ("scheduler.worker", "death"),
    ]
)


@st.composite
def fault_schedules(draw):
    """A handful of independent fault arms with random skip counts."""
    arms = draw(st.lists(_FAULT_CHOICES, min_size=0, max_size=3))
    return [(point, mode, draw(st.integers(0, 4))) for point, mode in arms]


def _property_relation():
    """Fixture-free relation for hypothesis tests (function-scoped fixtures
    are not reset between generated inputs)."""
    histogram = np.random.default_rng(7).integers(0, 40, N).astype(float)
    return Relation.from_histogram(Schema.build([Attribute("v", N)]), histogram)


class TestCrashRecoveryProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        schedule=fault_schedules(),
        num_requests=st.integers(1, 4),
        accountant=st.sampled_from(["pure", "approx", "zcdp"]),
        data=st.data(),
    )
    def test_restore_reconciles_exactly_under_any_fault_schedule(
        self, tmp_path_factory, schedule, num_requests, accountant, data
    ):
        relation = _property_relation()
        path = tmp_path_factory.mktemp("wal") / "j.wal"
        faults = FaultInjector()
        journal = PrivacyJournal(path, fsync="always", fault_injector=faults)
        manager = SessionManager()
        scheduler = PlanScheduler(manager, max_workers=1, fault_injector=faults)
        session = manager.create_session("acme", relation, 8.0, seed=11, accountant=accountant)
        requests = [
            dawa_request(session, epsilon=0.2)
            if i % 2
            else identity_request(session, epsilon=0.1 * (i + 1))
            for i in range(num_requests)
        ]
        # The session answers the first requests without a journal; attaching
        # one then writes its whole state.
        attach_after = data.draw(st.integers(0, num_requests), label="attach_after")
        results = [scheduler.execute(request) for request in requests[:attach_after]]
        session.attach_journal(journal)
        session.kernel.fault_injector = faults
        # Arm only after the attach so every fault lands inside a request
        # (hit counts start at arm time).
        for point, mode, after in schedule:
            exception = None
            if mode == "death":
                exception = WorkerDeath(point)
            elif mode == "oserror":
                exception = OSError(f"injected at {point}")
            faults.arm(point, after=after, exception=exception)

        results += scheduler.execute_batch(requests[attach_after:], return_exceptions=True)
        scheduler.shutdown()
        # Whatever the schedule did, the *live* session must reconcile (the
        # batch collector claims worker-death orphans).
        assert reconcile(session)["exact"]
        live_consumed = session.budget_consumed()
        journal.close()

        # The crash: a brand-new process restores from the journal alone.
        fresh = PlanScheduler(SessionManager())
        restored = fresh.restore_session(relation, journal=PrivacyJournal(path))
        assert reconcile(restored)["exact"]
        assert restored.budget_consumed() == pytest.approx(live_consumed, abs=1e-9)
        assert restored.accountant.describe() == session.accountant.describe()
        assert restored.accountant.default_delta == session.accountant.default_delta
        # The audit covers the sources DAWA derived before the crash.
        assert session_report(restored)["num_requests"] == len(restored.events)

        # Every answer released pre-crash replays byte-identical at zero ε.
        spent_before = restored.budget_consumed()
        for request, result in zip(requests, results):
            if isinstance(result, BaseException) or result.cached:
                continue
            replay = fresh.execute(
                replace(request, session_id=restored.session_id, request_id=None)
            )
            assert replay.cached
            assert replay.x_hat.tobytes() == result.x_hat.tobytes()
        assert restored.budget_consumed() == spent_before
        assert reconcile(restored)["exact"]

    @settings(max_examples=10, deadline=None)
    @given(cut=st.integers(1, 200))
    def test_truncated_journal_tail_still_restores_consistently(
        self, tmp_path_factory, cut
    ):
        """Losing an arbitrary tail of the journal never breaks exactness."""
        relation = _property_relation()
        path = tmp_path_factory.mktemp("wal") / "j.wal"
        journal = PrivacyJournal(path)
        manager = SessionManager()
        scheduler = PlanScheduler(manager)
        session = manager.create_session(
            "acme", relation, 8.0, seed=5, journal=journal
        )
        for i in range(3):
            scheduler.execute(identity_request(session, epsilon=0.1 * (i + 1)))
        journal.close()

        raw = path.read_bytes()
        # Keep at least the open record (its line ends at the first newline).
        head = raw.find(b"\n") + 1
        truncated = raw[: max(head, len(raw) - cut)]
        path.write_bytes(truncated)

        restored = PlanScheduler(SessionManager()).restore_session(
            relation, journal=PrivacyJournal(path)
        )
        # Prefix durability: whatever survived reconciles exactly, and spend
        # never exceeds what was actually charged pre-crash.
        assert reconcile(restored)["exact"]
        assert restored.budget_consumed() <= session.budget_consumed() + 1e-9
