"""Request-lifecycle robustness: retries and the closed-session rejection.

:class:`RetryPolicy` — bounded retries with exponential backoff and
deterministic jitter for *transient* faults.  Retries are budget-safe by
construction: the retried attempt keeps the same request id (hence the same
derived noise seed and cache key) and forces ``reuse=True``, so a request
whose answer was already cached before the fault (a failed journal commit,
say) is replayed at zero additional ε instead of being re-charged, and the
replay's commit journals the failed attempt's parts too.  Only a fault that
struck *before* any completed release re-runs the plan — and a mid-plan
fault's partial spend was already ledgered as an errored event, which the
attempt's commit journals (wasted, never leaked).

:class:`SessionClosedError` is the documented rejection for requests that
race a session close — see :meth:`repro.service.SessionManager.close`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..durability.faults import InjectedFault
from ..private.exceptions import DeadlineExceededError

__all__ = ["RetryPolicy", "SessionClosedError"]


class SessionClosedError(RuntimeError):
    """A request that raced a session close; the session's ledger is final."""


def _default_transient(exc: BaseException) -> bool:
    """Transient by default: injected-transient faults and I/O errors."""
    if isinstance(exc, InjectedFault):
        return exc.transient
    if isinstance(exc, DeadlineExceededError):
        return False
    return isinstance(exc, (OSError, ConnectionError))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for transient faults.

    ``delay(k, rng)`` after ``k`` failed attempts (1-based: the first retry
    waits ``delay(1, rng)``) is ``min(base_delay * backoff**(k - 1),
    max_delay)`` scaled by a jitter factor in ``[1 - jitter, 1 + jitter]``;
    the jitter stream is seeded, so a test's retry timing is reproducible.
    """

    max_attempts: int = 3
    base_delay: float = 0.01
    backoff: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.5
    seed: int | None = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether one more attempt may help (transient faults only)."""
        return _default_transient(exc)

    def delay(self, failed_attempts: int, rng: random.Random) -> float:
        raw = min(
            self.base_delay * self.backoff ** max(failed_attempts - 1, 0),
            self.max_delay,
        )
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))
