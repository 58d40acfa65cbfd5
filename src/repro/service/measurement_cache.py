"""Measurement reuse: answer repeated requests from prior noisy releases.

Differential privacy is closed under post-processing: once a noisy answer has
been released, handing the *same* answer out again costs no additional
budget.  The kernel's query history records every measurement actually
answered; this cache indexes completed responses by the request's
:meth:`~repro.service.api.QueryRequest.cache_key` (scoped per session) and,
via the recorded history span, stays reconcilable against the kernel — a
cache entry can always point back at exactly the
:class:`~repro.private.kernel.MeasurementRecord` rows that paid for it.

Entries are strictly per-session: tenants never see each other's releases.

``max_entries`` bounds the cache LRU-style (a lookup hit refreshes recency),
so long-lived sessions cannot grow it without bound.  Evicting an entry
never loses the release itself: on a journal-attached session the ``release``
record is durable (its request's commit record holds it), so a restore
replays the evicted answer back into the
cache byte-identically (and a non-durable session can simply re-run the
request — same derived seed, same noise, same answer, though it pays the ε
again).  The journal keeps its records in its file, not in RAM, so this
cache also bounds the released answers a journaled session holds in memory;
what still grows per request is small bookkeeping (history rows, budget
graph nodes, audit events).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from ..private.kernel import MeasurementRecord
from .api import QueryResponse
from .session import Session


def _frozen_copy(response: QueryResponse, **changes) -> QueryResponse:
    """A deep-enough copy with ``changes``: clients and cache never share state."""
    return replace(
        response,
        x_hat=np.array(response.x_hat, copy=True),
        answers=None if response.answers is None else np.array(response.answers, copy=True),
        info=dict(response.info),
        **changes,
    )


@dataclass
class CachedAnswer:
    """A completed response plus the kernel-history span that produced it."""

    response: QueryResponse
    history_start: int
    history_end: int


class MeasurementCache:
    """Per-session index of released answers keyed by request identity."""

    metrics_name = "measurement"

    def __init__(self, max_entries: int | None = None):
        self._entries: OrderedDict[tuple, CachedAnswer] = OrderedDict()
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _scoped(session: Session, key: tuple) -> tuple:
        # The scope token guards against session-id reuse after a close: a
        # fresh Session under an old id must never see the old releases.
        return (session.session_id, session.cache_scope) + key

    def lookup(self, session: Session, key: tuple) -> CachedAnswer | None:
        """The cached answer for ``key`` in this session, if any."""
        with self._lock:
            scoped = self._scoped(session, key)
            entry = self._entries.get(scoped)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(scoped)
        return entry

    def store(
        self,
        session: Session,
        key: tuple,
        response: QueryResponse,
        history_start: int,
        history_end: int,
    ) -> None:
        """Index a freshly-computed response (cache hits are never re-stored)."""
        with self._lock:
            scoped = self._scoped(session, key)
            self._entries[scoped] = CachedAnswer(
                _frozen_copy(response), history_start, history_end
            )
            self._entries.move_to_end(scoped)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    # LRU, never the entry just stored (moved to the hot end).
                    self._entries.popitem(last=False)
                    self.evictions += 1

    def replay(
        self, entry: CachedAnswer, request_id: str, accounting: dict, trace_id: str | None
    ) -> QueryResponse:
        """A budget-free copy of a cached response for a new request id,
        with the replay's ``accounting`` snapshot and ``trace_id``."""
        return _frozen_copy(
            entry.response,
            request_id=request_id,
            epsilon_spent=0.0,
            cached=True,
            elapsed_seconds=0.0,
            accounting=accounting,
            trace_id=trace_id,
        )

    def backing_records(self, session: Session, key: tuple) -> list[MeasurementRecord]:
        """Kernel-history rows that paid for the cached answer (for audits)."""
        with self._lock:
            entry = self._entries.get(self._scoped(session, key))
        if entry is None:
            return []
        return session.kernel.history()[entry.history_start : entry.history_end]

    def export_session(self, session: Session) -> list[dict]:
        """This session's entries as plain dicts (for snapshots).

        Each entry carries the bare request ``key`` (the part after the
        session scoping), a frozen copy of the response and the history span
        that paid for it; :func:`repro.durability.snapshot_session` encodes
        them and :func:`~repro.durability.restore_session` feeds them back
        through :meth:`store` so pre-crash answers replay at zero ε.
        """
        scope = (session.session_id, session.cache_scope)
        with self._lock:
            return [
                {
                    "key": key[2:],
                    "response": _frozen_copy(entry.response),
                    "history_start": entry.history_start,
                    "history_end": entry.history_end,
                }
                for key, entry in self._entries.items()
                if key[:2] == scope
            ]

    def invalidate_session(self, session: Session) -> int:
        """Drop every entry of one session (e.g. when it closes)."""
        with self._lock:
            stale = [
                k
                for k in self._entries
                if k[0] == session.session_id and k[1] == session.cache_scope
            ]
            for k in stale:
                del self._entries[k]
            self.evictions += len(stale)
        return len(stale)

    @property
    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
