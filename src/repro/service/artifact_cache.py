"""Cache of data-independent construction artifacts.

Workload matrices, measurement strategies and workload reductions depend only
on public parameters (domain sizes, query counts, seeds), never on private
data — so they are safe to share across sessions and tenants.  Building them
is often the dominant cost of a request on small domains; this cache keys
them by the canonical hashable keys from
:func:`repro.workload.builders.workload_cache_key` (or any caller-provided
hashable key) and rebuilds only on first use.

The scheduler passes it to every plan run as ``gram_cache=``, and three kinds
of entry share it: workloads (:meth:`ArtifactCache.workload`), public
strategies (``("public_strategy", plan, n, ..., representation)``, from
:func:`repro.plans.base.public_strategy`) and normal-equations factors
(``("least_squares_gram", strategy_key)``).  A cached strategy keeps the CSR
forms, transposes and strategy key it builds lazily, so later requests reuse
them too.

The cache is unbounded: it holds one entry per distinct public
construction served, for as long as the cache lives.

It is the service's only shared cache.  Its entries are public, so sharing
them across tenants costs no ε.  Released answers are private to their
tenant and are not kept here: each session owns its own
(:attr:`~repro.service.session.Session.releases`).
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, Mapping, TypeVar

from ..matrix import LinearQueryMatrix
from ..workload.builders import build_workload, workload_cache_key

T = TypeVar("T")

#: Sentinel distinguishing "no entry" from a cached ``None`` artifact.
_MISS = object()


class ArtifactCache:
    """Thread-safe map from hashable keys to data-independent artifacts.

    Its ``hits``/``misses`` fields are its counters; a scheduler's metrics
    export reads them as ``cache_hits`` / ``cache_misses`` labelled
    ``cache="artifact"``.
    """

    def __init__(self):
        self._entries: dict[Hashable, object] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_or_build(self, key: Hashable, builder: Callable[[], T]) -> T:
        """Return the cached artifact for ``key``, building it on a miss.

        The builder runs outside the lock (constructions can be slow and
        must not serialise unrelated requests); on a build race the first
        stored artifact wins so every caller sees one canonical object.
        """
        with self._lock:
            artifact = self._entries.get(key, _MISS)
            if artifact is not _MISS:
                self.hits += 1
                return artifact  # type: ignore[return-value]
            self.misses += 1
        artifact = builder()
        with self._lock:
            return self._entries.setdefault(key, artifact)  # type: ignore[return-value]

    def workload(
        self, name: str, params: Mapping[str, object] | None = None
    ) -> LinearQueryMatrix:
        """Convenience: cached construction of a registry workload."""
        key = workload_cache_key(name, params)
        return self.get_or_build(key, lambda: build_workload(name, params))

    @property
    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries
