"""Pluggable privacy accountants (pure ε, (ε, δ), ρ-zCDP).

The kernel's budget enforcement is split in two: lineage-stability
bookkeeping (Algorithm 2, in :mod:`repro.private.budget`) and the privacy
*calculus* — what a mechanism costs, how costs compose and scale, and what
guarantee the spend adds up to — which lives here and is swappable per
kernel / per service session.

Entry points
------------
:func:`make_accountant`
    Resolve a per-tenant registry name (``"pure"`` / ``"approx"`` /
    ``"zcdp"``) against an ``(ε, δ)`` target; a bare kernel takes any
    :class:`Accountant` instance (``protect(..., accountant=...)``).

Spend per source is :func:`~repro.private.audit.audit_kernel`'s, and the
converted ``(ε, δ)`` statement is ``ProtectedKernel.accounting_report()``.
"""

from .accountants import (
    ACCOUNTANTS,
    ApproxDPAccountant,
    PureDPAccountant,
    ZCDPAccountant,
    make_accountant,
)
from .base import (
    Accountant,
    Cost,
    gaussian_analytic_sigma,
    zcdp_epsilon_for_rho_delta,
    zcdp_rho_for_epsilon_delta,
)

__all__ = [
    "Accountant",
    "Cost",
    "ACCOUNTANTS",
    "PureDPAccountant",
    "ApproxDPAccountant",
    "ZCDPAccountant",
    "make_accountant",
    "gaussian_analytic_sigma",
    "zcdp_rho_for_epsilon_delta",
    "zcdp_epsilon_for_rho_delta",
]
