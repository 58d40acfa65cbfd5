"""Exceptions raised by the protected kernel."""

from __future__ import annotations


class PrivacyError(Exception):
    """Base class of all privacy-enforcement errors."""


class BudgetExceededError(PrivacyError):
    """Raised when a measurement request would exceed the global privacy budget.

    Per Sec. 4.3, raising this exception does not leak sensitive information:
    the decision depends only on the (public) history of budget requests, not
    on the private data.
    """

    def __init__(self, requested: float, remaining: float):
        self.requested = float(requested)
        self.remaining = float(remaining)
        super().__init__(
            f"budget request of {requested:.6g} exceeds remaining budget {remaining:.6g}"
        )

    def __reduce__(self):
        # Default exception pickling replays ``args`` (here: the formatted
        # message) into the two-argument constructor; reconstruct from the
        # real fields instead so the concrete type survives pickling.
        return (type(self), (self.requested, self.remaining))


class UnsupportedMechanismError(PrivacyError):
    """Raised when a measurement mechanism has no guarantee under the
    kernel's accountant (e.g. the Gaussian mechanism under pure ε-DP)."""


class UnknownSourceError(PrivacyError):
    """Raised when an operator references a data-source variable the kernel does not track."""


class InvalidTransformationError(PrivacyError):
    """Raised when a transformation is applied to an incompatible data source."""
