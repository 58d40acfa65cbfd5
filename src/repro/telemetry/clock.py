"""Injectable monotonic clocks for the telemetry subsystem.

All timing in :mod:`repro.telemetry` flows through a *clock*: any zero-argument
callable returning monotonically non-decreasing seconds.  The default is
:func:`time.perf_counter`; tests inject a :class:`ManualClock` so span
durations are exact and deterministic.
"""

from __future__ import annotations

import time
from typing import Callable

#: A clock is any ``() -> float`` returning monotonic seconds.
Clock = Callable[[], float]

#: The production default.
DEFAULT_CLOCK: Clock = time.perf_counter


class ManualClock:
    """A clock advanced explicitly by the caller (for deterministic tests).

    ``tick`` is added on every *read*, so code that brackets work with two
    reads sees a fixed, predictable duration; :meth:`advance` jumps the clock
    between operations.
    """

    def __init__(self, start: float = 0.0, tick: float = 0.0):
        self.now = float(start)
        self.tick = float(tick)

    def __call__(self) -> float:
        value = self.now
        self.now += self.tick
        return value

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("a monotonic clock cannot go backwards")
        self.now += seconds
