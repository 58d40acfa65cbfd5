"""The three concrete privacy accountants: pure ε, (ε, δ) and ρ-zCDP.

=============  ==============  ========================================
accountant     native unit     when to prefer it
=============  ==============  ========================================
``pure``       ε               the paper's semantics; Laplace plans,
                               worst-case guarantees, seed compatibility
``approx``     (ε, δ)          Gaussian measurements with the classic
                               analytic calibration; basic composition
``zcdp``       ρ               many-round plans (MWEM) and L2-friendly
                               strategies: additive ρ composition is much
                               tighter than summing per-round ε
=============  ==============  ========================================

Cost rules (per mechanism invocation with pure-DP parameter ε, or a Gaussian
``(ε, δ)`` target):

* pure:    Laplace ε, exponential ε, Gaussian unsupported.
* approx:  Laplace (ε, 0), exponential (ε, 0), Gaussian (ε, δ) with
  ``σ = Δ₂·sqrt(2·ln(1.25/δ))/ε``.
* zcdp:    Laplace ε²/2 (pure ε-DP implies ε²/2-zCDP), exponential ε²/8
  (bounded-range analysis, Cesar & Rogers 2021), Gaussian ρ(ε, δ) with
  ``σ = Δ₂/sqrt(2ρ)`` — ρ being the tight zCDP equivalent of the target.

Stability scaling through a c-stable transformation follows group privacy:
ε scales by c (pure/approx), ρ by c² (zCDP); the approximate-DP δ picks up
the group-privacy factor ``c·e^{(c−1)ε}`` when c > 1.
"""

from __future__ import annotations

import math

from .base import (
    Accountant,
    Cost,
    gaussian_analytic_sigma,
    zcdp_epsilon_for_rho_delta,
    zcdp_rho_for_epsilon_delta,
)

__all__ = [
    "PureDPAccountant",
    "ApproxDPAccountant",
    "ZCDPAccountant",
    "make_accountant",
]


class PureDPAccountant(Accountant):
    """The seed semantics: pure ε-DP with linear (basic) composition.

    Bit-compatible with the original hard-coded tracker: every cost is the
    bare ε of the mechanism, scaling through a c-stable edge is the float
    product ``c * ε``, and δ is identically zero.
    """

    name = "pure"

    def __init__(self, epsilon_total: float):
        if epsilon_total is None or not 0 < epsilon_total < math.inf:
            raise ValueError("the global privacy budget must be positive and finite")
        self.epsilon_total = float(epsilon_total)
        self.budget = Cost(self.epsilon_total)

    def laplace_cost(self, epsilon: float) -> Cost:
        return Cost(epsilon)

    def exponential_cost(self, epsilon: float) -> Cost:
        return Cost(epsilon)

    def scale(self, cost: Cost, stability: float) -> Cost:
        return Cost(stability * cost.primary)

    def epsilon_delta(self, spent: Cost) -> tuple[float, float]:
        return spent.primary, 0.0


class ApproxDPAccountant(Accountant):
    """(ε, δ)-DP with basic composition on both components.

    ``delta_total`` is the session's δ budget; each Gaussian measurement
    spends ``measurement_delta`` from it (by default 1% of the total, so a
    session can run up to a hundred Gaussian measurements before the δ
    ledger is exhausted).
    """

    name = "approx"

    def __init__(
        self,
        epsilon_total: float,
        delta_total: float = 1e-6,
        measurement_delta: float | None = None,
    ):
        if epsilon_total is None or not 0 < epsilon_total < math.inf:
            raise ValueError("the global privacy budget must be positive and finite")
        if not 0 < delta_total < 1:
            raise ValueError("delta_total must lie in (0, 1)")
        self.epsilon_total = float(epsilon_total)
        self.delta_total = float(delta_total)
        self.budget = Cost(self.epsilon_total, self.delta_total)
        if measurement_delta is None:
            measurement_delta = self.delta_total / 100.0
        if not 0 < measurement_delta <= delta_total:
            raise ValueError("measurement_delta must lie in (0, delta_total]")
        self.default_delta = float(measurement_delta)

    def laplace_cost(self, epsilon: float) -> Cost:
        return Cost(epsilon, 0.0)

    def exponential_cost(self, epsilon: float) -> Cost:
        return Cost(epsilon, 0.0)

    def gaussian_mechanism(
        self, l2_sensitivity: float, epsilon: float, delta: float
    ) -> tuple[float, Cost]:
        sigma = gaussian_analytic_sigma(l2_sensitivity, epsilon, delta)
        return sigma, Cost(epsilon, delta)

    def scale(self, cost: Cost, stability: float) -> Cost:
        # Group privacy: (ε, δ) → (cε, c·e^{(c−1)ε}·δ) for group size c ≥ 1;
        # contractive edges (c < 1) keep δ unscaled (shrinking it is unsound).
        if stability >= 1.0:
            delta = min(
                stability * math.exp((stability - 1.0) * cost.primary) * cost.delta,
                1.0,
            )
        else:
            delta = cost.delta
        return Cost(stability * cost.primary, delta)

    def epsilon_delta(self, spent: Cost) -> tuple[float, float]:
        return spent.primary, spent.delta


class ZCDPAccountant(Accountant):
    """ρ-zCDP with additive composition, reported as ``(ε, δ)`` at fixed δ.

    Constructed either from a tenant-facing ``(ε, δ)`` target — the budget is
    the largest ρ whose conversion stays inside it — or from an explicit
    ``rho`` budget.  Laplace and exponential measurements are admitted
    through their zCDP cost bounds, so mixed plans stay chargeable; Gaussian
    measurements are calibrated from the tight ρ-equivalent of their
    ``(ε, δ)`` target, at the accountant's own δ, which is where many-round
    plans gain over basic composition.
    """

    name = "zcdp"

    def __init__(
        self,
        epsilon: float | None = None,
        delta: float = 1e-6,
        rho: float | None = None,
    ):
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        self.delta = float(delta)
        if rho is None:
            if epsilon is None:
                raise ValueError("provide either an (epsilon, delta) target or rho")
            rho = zcdp_rho_for_epsilon_delta(float(epsilon), self.delta)
        elif not 0 < rho < math.inf:
            raise ValueError("rho must be positive and finite")
        self.rho_total = float(rho)
        self.budget = Cost(self.rho_total)
        self.default_delta = self.delta

    def laplace_cost(self, epsilon: float) -> Cost:
        # ε-DP implies (ε²/2)-zCDP (Bun & Steinke 2016, Prop. 1.4).
        return Cost(epsilon * epsilon / 2.0)

    def exponential_cost(self, epsilon: float) -> Cost:
        # The exponential mechanism is (ε²/8)-zCDP (bounded range: Cesar &
        # Rogers 2021), a factor-4 improvement over the generic ε²/2.
        return Cost(epsilon * epsilon / 8.0)

    def gaussian_mechanism(
        self, l2_sensitivity: float, epsilon: float, delta: float
    ) -> tuple[float, Cost]:
        rho = zcdp_rho_for_epsilon_delta(epsilon, delta)
        sigma = l2_sensitivity / math.sqrt(2.0 * rho)
        return sigma, Cost(rho)

    def scale(self, cost: Cost, stability: float) -> Cost:
        # Group privacy for zCDP: ρ scales quadratically with the group size.
        return Cost(stability * stability * cost.primary)

    def epsilon_delta(self, spent: Cost) -> tuple[float, float]:
        return zcdp_epsilon_for_rho_delta(spent.primary, self.delta), self.delta


#: Registry of accountant specs the service accepts per tenant.
ACCOUNTANTS = {
    "pure": PureDPAccountant,
    "approx": ApproxDPAccountant,
    "zcdp": ZCDPAccountant,
}


def make_accountant(
    spec: str | None,
    epsilon_total: float,
    delta: float = 1e-6,
) -> Accountant:
    """Resolve a per-tenant accountant choice.

    ``spec`` is a registry name, ``"pure"`` / ``"approx"`` / ``"zcdp"``
    (constructed against the tenant's ``(epsilon_total, delta)`` target), or
    ``None`` for the seed-compatible pure accountant.  A restore rebuilds a
    session's accountant from that name and target alone, so an
    :class:`Accountant` instance is refused; ``protect(..., accountant=...)``
    takes one.
    """
    if spec is None or spec == "pure":
        return PureDPAccountant(epsilon_total)
    if spec == "approx":
        return ApproxDPAccountant(epsilon_total, delta_total=delta)
    if spec == "zcdp":
        return ZCDPAccountant(epsilon=epsilon_total, delta=delta)
    raise KeyError(
        f"unknown accountant {spec!r}; a session takes one of {sorted(ACCOUNTANTS)} or None"
    )
