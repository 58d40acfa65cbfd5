"""Budget auditing: human-readable accounting of a plan's privacy consumption.

The protected kernel already tracks everything needed for the privacy proof
(lineage, stability, per-source consumption, measurement history).  This
module turns that state into a report a practitioner can read — which
operators spent budget, on which derived sources, and how the parallel
composition across partitions kept the total at the root below epsilon_total.

This is public information: it never includes query answers or data values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .kernel import MeasurementRecord, ProtectedKernel
from .protected import ProtectedDataSource


@dataclass
class SourceReport:
    """Per-source accounting entry.

    A source of ``kind`` ``"restored"`` was derived before its kernel was
    restored from durable records: it is known by its history rows alone, so
    its lineage is empty, its stability ``None`` and ``consumed`` the sum of
    its rows' cost.
    """

    name: str
    kind: str
    lineage: list[str]
    cumulative_stability: float | None
    consumed: float
    measurements: list[MeasurementRecord] = field(default_factory=list)


@dataclass
class BudgetAudit:
    """Full audit of a kernel's privacy consumption.

    Totals are in the accountant's *native* units (ε under pure /
    approximate DP, ρ under zCDP); ``epsilon_reported`` / ``delta_reported``
    carry the accountant's converted ``(ε, δ)`` statement covering the spend,
    so audits of non-pure kernels still end in a DP guarantee a practitioner
    can quote.
    """

    epsilon_total: float
    consumed_at_root: float
    remaining: float
    sources: list[SourceReport]
    accountant: str = "pure"
    epsilon_reported: float = 0.0
    delta_reported: float = 0.0

    @property
    def num_measurements(self) -> int:
        return sum(len(source.measurements) for source in self.sources)

    def to_text(self) -> str:
        """Render the audit as an aligned plain-text report."""
        lines = [
            f"accountant          : {self.accountant}",
            f"global budget       : {self.epsilon_total:.6g}",
            f"consumed at the root: {self.consumed_at_root:.6g}",
            f"remaining           : {self.remaining:.6g}",
            f"reported (eps,delta): ({self.epsilon_reported:.6g}, {self.delta_reported:.3g})",
            f"measurements        : {self.num_measurements}",
            "",
            f"{'source':<22} {'kind':<10} {'stability':>9} {'consumed':>9}  measurements",
        ]
        for source in self.sources:
            ops = ", ".join(
                f"{record.operator}(eps={record.epsilon:g})" for record in source.measurements
            )
            stability = source.cumulative_stability
            stability = "-" if stability is None else f"{stability:.3g}"
            lines.append(
                f"{source.name:<22} {source.kind:<10} "
                f"{stability:>9} {source.consumed:>9.3g}  {ops}"
            )
        return "\n".join(lines)


def audit_kernel(kernel: ProtectedKernel) -> BudgetAudit:
    """Build a :class:`BudgetAudit` from a kernel's public accounting state."""
    history = kernel.history()
    by_source: dict[str, list[MeasurementRecord]] = {}
    for record in history:
        by_source.setdefault(record.source, []).append(record)

    sources = []
    # Collect every source that either spent budget or appears in a lineage
    # of one.  A measured source the kernel has no lineage for predates a
    # restore: it is reported as restored, from its history rows alone.
    known = kernel.budget_tracker
    names = {"root"}
    for name in by_source:
        names.update(kernel.lineage(name) if name in known else [name])
    for name in sorted(names):
        measurements = by_source.get(name, [])
        if name in known:
            sources.append(
                SourceReport(
                    name=name,
                    kind=kernel.source_kind(name),
                    lineage=kernel.lineage(name),
                    cumulative_stability=kernel.cumulative_stability(name),
                    consumed=kernel.source_consumed(name),
                    measurements=measurements,
                )
            )
        else:
            sources.append(
                SourceReport(
                    name=name,
                    kind="restored",
                    lineage=[],
                    cumulative_stability=None,
                    consumed=math.fsum(record.cost for record in measurements),
                    measurements=measurements,
                )
            )
    epsilon_reported, delta_reported = kernel.accountant.epsilon_delta(
        kernel.budget_spent_cost()
    )
    return BudgetAudit(
        epsilon_total=kernel.epsilon_total,
        consumed_at_root=kernel.budget_consumed(),
        remaining=kernel.budget_remaining(),
        sources=sources,
        accountant=kernel.accountant.name,
        epsilon_reported=epsilon_reported,
        delta_reported=delta_reported,
    )


def audit(source: ProtectedDataSource) -> BudgetAudit:
    """Audit the kernel behind any protected handle."""
    return audit_kernel(source.kernel)
