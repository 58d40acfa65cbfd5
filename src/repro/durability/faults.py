"""Deterministic fault injection for the crash-recovery property suite.

A :class:`FaultInjector` is threaded through the seams where a production
deployment actually fails — the kernel's charge path, the journal's append
and fsync calls, the scheduler's worker threads — and fires pre-armed faults
when execution reaches them.  Faults are *schedules*, not probabilities:
``arm("kernel.after_charge", after=2, times=1)`` fires exactly on the third
hit of that seam, so every interleaving the property suite explores is
reproducible from its schedule alone.

Fault points (the seams instrumented in this repo):

* ``kernel.before_charge`` — before a measurement's budget charge: the
  request dies having spent nothing.
* ``kernel.after_charge`` — after the charge is accepted but before the
  noisy answer is computed: the request dies with budget charged and
  nothing released, so budget is wasted but nothing leaks (its commit
  journals the charge with no event, and a restore claims it).
* ``journal.append`` — before a journal record is written (I/O error): a
  failed commit, whose request raises without a response.
* ``journal.fsync`` — inside an ``fsync="always"`` journal's commit, after
  the flush and before ``os.fsync`` (``OSError``, the classic
  torn-durability failure): an answered request raises after its answer
  was released, and asking again replays it at zero ε.
* ``scheduler.worker`` — at a batch worker's entry: :class:`WorkerDeath`
  derives from ``BaseException`` precisely so it sails *past* the
  scheduler's ``except Exception`` ledgering, modelling a thread/process
  that died without any cleanup running.

Armed specs can also ``delay`` instead of raising (slow-IO faults), and every
firing is logged on :attr:`FaultInjector.fired` for assertions.

The default ``fault_injector=None`` wiring costs one attribute check per
seam; production code never pays for the harness.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "InjectedFault",
    "WorkerDeath",
]

#: The seams instrumented across kernel/journal/scheduler.
FAULT_POINTS = (
    "kernel.before_charge",
    "kernel.after_charge",
    "journal.append",
    "journal.fsync",
    "scheduler.worker",
)


class InjectedFault(Exception):
    """A fault raised by the harness at an instrumented seam."""

    def __init__(self, point: str):
        self.point = point
        super().__init__(f"injected fault at {point!r}")


class WorkerDeath(BaseException):
    """A worker thread dying mid-request, cleanup handlers and all.

    Derives from ``BaseException`` so the scheduler's ``except Exception``
    accounting path does NOT run — exactly what a killed process looks like.
    ``execute_batch`` and journal recovery must reconcile the ledger without
    any help from the dying request.
    """

    def __init__(self, point: str = "scheduler.worker"):
        self.point = point
        super().__init__(f"worker death injected at {point!r}")


@dataclass
class _ArmedFault:
    """One scheduled fault: fire on hits ``after < n <= after + times``."""

    point: str
    after: int = 0
    times: int = 1
    exception: BaseException | None = None
    delay: float = 0.0
    hits: int = 0

    def should_fire(self) -> bool:
        return self.after < self.hits <= self.after + self.times


@dataclass(frozen=True)
class FiredFault:
    """Log entry of one firing (for test assertions)."""

    point: str
    hit: int
    context: tuple = ()


class FaultInjector:
    """Arms and fires deterministic faults at named seams."""

    def __init__(self):
        self._lock = threading.Lock()
        self._armed: dict[str, list[_ArmedFault]] = {}
        #: chronological log of every firing.
        self.fired: list[FiredFault] = []

    def arm(
        self,
        point: str,
        *,
        after: int = 0,
        times: int = 1,
        exception: BaseException | None = None,
        delay: float = 0.0,
    ) -> None:
        """Schedule a fault at ``point``.

        The fault fires on the ``after+1``-th through ``after+times``-th hits
        of the seam.  ``exception`` overrides the raised object (default: an
        :class:`InjectedFault`; pass a :class:`WorkerDeath` to model worker
        loss); ``delay`` sleeps instead of raising when no exception is
        wanted (slow-IO), or before raising when both are set.
        """
        if times < 0 or after < 0:
            raise ValueError("fault schedules need non-negative after/times")
        spec = _ArmedFault(
            point, after=after, times=times, exception=exception, delay=float(delay)
        )
        with self._lock:
            self._armed.setdefault(point, []).append(spec)

    def fire(self, point: str, *context) -> None:
        """Called by instrumented seams; raises/sleeps per the armed schedule."""
        with self._lock:
            specs = self._armed.get(point)
            if not specs:
                return
            to_fire = []
            for spec in specs:
                spec.hits += 1
                if spec.should_fire():
                    to_fire.append(spec)
                    self.fired.append(FiredFault(point, spec.hits, context))
        for spec in to_fire:
            if spec.delay > 0.0:
                time.sleep(spec.delay)
            if spec.exception is not None:
                raise spec.exception
            if spec.delay == 0.0:
                # A pure-delay spec models slow IO and does not raise.
                raise InjectedFault(point)

    def reset(self) -> None:
        with self._lock:
            self._armed.clear()
            self.fired.clear()
