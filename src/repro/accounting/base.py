"""The privacy-accounting interface: costs and accountants.

The paper's kernel (Sec. 4) hard-codes pure ε-DP: every measurement charges
its ε parameter, charges compose additively through the transformation
lineage, and partition nodes take the maximum over children.  This module
generalises that calculus into a swappable component while the operator
classes stay fixed — the framework argument of the paper taken one step
further.

An :class:`Accountant` defines, in its own *native* budget units:

* the **cost** of each vetted mechanism (Laplace, Gaussian, exponential),
* how a cost **scales** through a c-stable transformation (group privacy),
* the **total budget** a tenant's ``(ε, δ)`` target translates to, and
* the conversion of native spend back to an ``(ε, δ)`` statement for audits.

Costs are two-component vectors (:class:`Cost`): a ``primary`` magnitude in
the accountant's native unit (ε for pure and approximate DP, ρ for zCDP) plus
a ``delta`` component (the δ ledger of approximate DP; identically zero for
pure DP and zCDP).  The lineage bookkeeping in
:class:`~repro.private.budget.BudgetTracker` is written against this vector
type, so one Algorithm-2 implementation serves every accountant:
componentwise addition is sequential/basic composition, componentwise
max-increase at partition nodes is parallel composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Cost", "Accountant"]


@dataclass(frozen=True)
class Cost:
    """A privacy charge in an accountant's native units.

    ``primary`` is ε (pure / approximate DP) or ρ (zCDP); ``delta`` is the
    failure-probability ledger of approximate DP (always 0 for the scalar
    calculi).  Componentwise arithmetic is exactly the float arithmetic the
    seed tracker performed on bare ε values, so a pure-DP charge trajectory
    through :class:`Cost` is bit-identical to the seed's.
    """

    primary: float
    delta: float = 0.0

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.primary + other.primary, self.delta + other.delta)

    def increase_over(self, other: "Cost") -> "Cost":
        """Componentwise ``max(self - other, 0)`` — the parallel-composition
        increase a child's new total forwards past the partition's max."""
        return Cost(
            max(self.primary - other.primary, 0.0),
            max(self.delta - other.delta, 0.0),
        )

    @property
    def is_zero(self) -> bool:
        return self.primary <= 0.0 and self.delta <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.delta:
            return f"Cost({self.primary:g}, delta={self.delta:g})"
        return f"Cost({self.primary:g})"


ZERO_COST = Cost(0.0, 0.0)


class Accountant:
    """Cost rules of one privacy calculus; all mutable state lives in the
    :class:`~repro.private.budget.BudgetTracker` that consults it.

    One accountant instance can therefore back any number of kernels (the
    service shares specs across sessions of a tenant) — it is a pure bundle
    of budget total + cost functions.
    """

    #: registry / reporting name ("pure", "approx", "zcdp").
    name: str = "abstract"

    #: total budget in native units; charges accumulate against this.
    budget: Cost

    #: δ used when a Gaussian measurement does not pass one explicitly, and
    #: (for zCDP) the δ at which spend is converted back to (ε, δ) reports.
    default_delta: float = 0.0

    # ------------------------------------------------------------------
    # Mechanism cost rules.
    # ------------------------------------------------------------------
    def laplace_cost(self, epsilon: float) -> Cost:
        """Charge for a Laplace mechanism run with pure-DP parameter ε."""
        raise NotImplementedError

    def exponential_cost(self, epsilon: float) -> Cost:
        """Charge for an exponential-mechanism selection with parameter ε."""
        raise NotImplementedError

    def gaussian_mechanism(
        self, l2_sensitivity: float, epsilon: float, delta: float
    ) -> tuple[float, Cost]:
        """Noise standard deviation and charge of a Gaussian measurement.

        The per-measurement target is ``(ε, δ)``; accountants that track a
        tighter native unit (zCDP) convert the target into that unit and
        calibrate the noise from it, which is where the composition savings
        of Gaussian plans come from.  An accountant without a Gaussian
        guarantee (pure DP) refuses it.
        """
        # Imported at call time: repro.private imports repro.accounting at
        # module load (kernel → budget → accountants), so the reverse edge
        # must stay lazy to keep both package entry points importable.
        from ..private.exceptions import UnsupportedMechanismError

        raise UnsupportedMechanismError(
            f"the Gaussian mechanism has no {self.name}-DP guarantee; "
            f"choose an accountant that supports it"
        )

    # ------------------------------------------------------------------
    # Lineage scaling (group privacy through c-stable transformations).
    # ------------------------------------------------------------------
    def scale(self, cost: Cost, stability: float) -> Cost:
        """Forward a cost through a ``stability``-stable transformation."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    def epsilon_delta(self, spent: Cost) -> tuple[float, float]:
        """An ``(ε, δ)``-DP statement covering ``spent`` native units."""
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-ready summary of the accountant's configuration."""
        eps, delta = self.epsilon_delta(self.budget)
        return {
            "accountant": self.name,
            "native_budget": self.budget.primary,
            "native_delta_budget": self.budget.delta,
            "epsilon_budget": eps,
            "delta_budget": delta,
        }

    def report(self, spent: Cost, remaining: Cost) -> dict:
        """JSON-ready accounting of a tracker's spend in both unit systems."""
        eps_spent, delta_spent = self.epsilon_delta(spent)
        out = self.describe()
        out.update(
            {
                "native_spent": spent.primary,
                "native_delta_spent": spent.delta,
                "native_remaining": remaining.primary,
                "epsilon_spent": eps_spent,
                "delta_spent": delta_spent,
            }
        )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(budget={self.budget!r})"


def zcdp_rho_for_epsilon_delta(epsilon: float, delta: float) -> float:
    """The largest ρ whose zCDP-to-DP conversion meets an ``(ε, δ)`` target.

    ρ-zCDP implies ``(ρ + 2·sqrt(ρ·ln(1/δ)), δ)``-DP (Bun & Steinke 2016,
    Prop. 1.3).  Solving ``ρ + 2·sqrt(ρ·L) = ε`` with ``L = ln(1/δ)`` for
    ``u = sqrt(ρ)`` gives ``u = sqrt(L + ε) − sqrt(L)``.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("the epsilon target must be positive and finite")
    if not 0 < delta < 1:
        raise ValueError("the delta target must lie in (0, 1)")
    log_term = math.log(1.0 / delta)
    root = math.sqrt(log_term + epsilon) - math.sqrt(log_term)
    return root * root


def zcdp_epsilon_for_rho_delta(rho: float, delta: float) -> float:
    """The ε of the ``(ε, δ)`` statement ρ-zCDP provides at failure rate δ."""
    if rho < 0:
        raise ValueError("rho must be non-negative")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def gaussian_analytic_sigma(l2_sensitivity: float, epsilon: float, delta: float) -> float:
    """Classic ``(ε, δ)`` Gaussian calibration ``σ = Δ₂·sqrt(2·ln(1.25/δ))/ε``.

    Valid for ε ≤ 1 and conservative above; the textbook formula the
    approximate-DP accountant uses (Dwork & Roth 2014, Thm. A.1).
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return l2_sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon
