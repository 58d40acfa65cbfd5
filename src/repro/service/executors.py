"""Executor backends: how many threads drive requests.

A backend runs the scheduler's request-driving calls — the session lock,
cache probes, the plan itself, budget accounting and journal commits —
through :meth:`ExecutorBackend.submit`.  Everything stays in the
scheduler's process, next to the sessions' kernels and journals:

* :class:`InlineExecutor` drives each request to completion on the calling
  thread — the sequential, deterministic baseline;
* :class:`ThreadExecutor` drives requests on a persistent thread pool, so
  requests on different sessions overlap (requests on one session still
  serialise on its lock).

Answers are byte-identical on both: all noise is drawn from the derived
request seed (see :func:`~repro.service.scheduler.derive_request_seed`), which
nothing scheduling-dependent feeds.  The exception is two identical
``reuse=True`` requests in one batch: on the thread pool they race for which
computes and which replays, so which request id's seed made the shared answer
depends on scheduling (:meth:`~repro.service.scheduler.PlanScheduler.execute_batch`).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor

__all__ = [
    "ExecutorBackend",
    "InlineExecutor",
    "ThreadExecutor",
    "make_executor",
]


class ExecutorBackend:
    """Protocol all backends implement: ``submit``/``shutdown``."""

    def submit(self, fn, *args) -> Future:
        """Schedule one request-driving call; returns its future."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release pools, after their running calls finish; the backend is
        unusable afterwards."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class InlineExecutor(ExecutorBackend):
    """Sequential driving on the calling thread — zero concurrency, zero
    pool overhead; the deterministic baseline every other backend must match
    byte-for-byte."""

    def submit(self, fn, *args) -> Future:
        future = Future()
        try:
            result = fn(*args)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:
            # Including WorkerDeath: a real pool's future captures it too, and
            # the batch collector's orphan accounting depends on seeing it.
            future.set_exception(exc)
        else:
            future.set_result(result)
        return future


class ThreadExecutor(ExecutorBackend):
    """A persistent ``ThreadPoolExecutor`` for request driving: one pool for
    the scheduler's lifetime, lazily created on first use."""

    def __init__(self, max_workers: int = 4):
        self.max_workers = max(int(max_workers), 1)
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="svc-driver"
                )
            return self._pool

    def submit(self, fn, *args) -> Future:
        return self._ensure().submit(fn, *args)

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()


def make_executor(spec, max_workers: int = 4) -> ExecutorBackend:
    """Resolve ``PlanScheduler(executor=...)``: an instance is used as-is, a
    name constructs the matching backend sized to ``max_workers``."""
    if isinstance(spec, ExecutorBackend):
        return spec
    if spec is None or spec == "thread":
        return ThreadExecutor(max_workers=max_workers)
    if spec == "inline":
        return InlineExecutor()
    raise ValueError(
        f"unknown executor {spec!r}; expected 'inline', 'thread' "
        "or an ExecutorBackend instance"
    )
