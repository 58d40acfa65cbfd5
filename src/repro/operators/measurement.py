"""Public noise-scale helpers for planning measurements.

EKTELO's paper has exactly two budget-spending query operators (Sec. 5.2):
Vector Laplace for vector sources and NoisyCount for table sources.  This
reproduction adds a third, Vector Gaussian, whose noise is calibrated to the
query matrix's **L2** sensitivity and charged through the kernel's pluggable
accountant (unavailable under pure ε-DP accounting — the Gaussian mechanism
only gives ``(ε, δ)`` / zCDP guarantees).  All three live inside the
protected kernel and are called through
:class:`~repro.private.protected.ProtectedDataSource` handles
(``source.vector_laplace(M, eps)``).  This module holds only the public,
data-independent planning helpers: the noise scale a measurement will use.
"""

from __future__ import annotations

from ..accounting.base import gaussian_analytic_sigma
from ..matrix import LinearQueryMatrix, ensure_matrix


def laplace_noise_scale(queries: LinearQueryMatrix, epsilon: float) -> float:
    """The noise scale Vector Laplace will use for this measurement (public)."""
    return ensure_matrix(queries).sensitivity() / epsilon


def gaussian_noise_scale(
    queries: LinearQueryMatrix, epsilon: float, delta: float
) -> float:
    """The σ the *analytic* Gaussian mechanism uses at an ``(ε, δ)`` target.

    Public planning helper: ``||M||_2 · sqrt(2·ln(1.25/δ)) / ε``.  A zCDP
    accountant calibrates tighter (``σ = ||M||_2 / sqrt(2ρ)``); this formula
    is the accountant-independent upper bound plans can reason with.
    """
    return gaussian_analytic_sigma(ensure_matrix(queries).sensitivity_l2(), epsilon, delta)
