"""Plan registry: the Fig. 2 table as code.

Maps plan names to factories plus the plan-signature metadata used by the
transparency example (``examples/plan_signatures.py``).  Factories take the
keyword arguments a plan needs beyond the protected source and epsilon
(workloads, domain shapes, stripe axes, ...), so benchmarks can instantiate
plans uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from .base import Plan
from .data_dependent import AdaptiveGridPlan, AhpPlan, DawaPlan, MwemPlan
from .data_independent import (
    GreedyHPlan,
    H2Plan,
    HbPlan,
    HdmmPlan,
    IdentityPlan,
    PriveletPlan,
    QuadtreePlan,
    UniformGridPlan,
    UniformPlan,
)
from .mwem_variants import MwemVariantB, MwemVariantC, MwemVariantD
from .privbayes import PrivBayesLsPlan, PrivBayesPlan
from .striped import DawaStripedPlan, HbStripedKronPlan, HbStripedPlan


@dataclass(frozen=True)
class PlanEntry:
    """One row of the Fig. 2 plan table."""

    plan_id: int | None
    name: str
    citation: str
    signature: str
    factory: Callable[..., Plan]


PLAN_TABLE: list[PlanEntry] = [
    PlanEntry(1, "Identity", "Dwork et al. 2006", "SI LM", IdentityPlan),
    PlanEntry(2, "Privelet", "Xiao et al. 2010", "SP LM LS", PriveletPlan),
    PlanEntry(3, "Hierarchical (H2)", "Hay et al. 2010", "SH2 LM LS", H2Plan),
    PlanEntry(4, "Hierarchical Opt (HB)", "Qardaji et al. 2013", "SHB LM LS", HbPlan),
    PlanEntry(5, "Greedy-H", "Li et al. 2014", "SG LM LS", GreedyHPlan),
    PlanEntry(6, "Uniform", "-", "ST LM LS", UniformPlan),
    PlanEntry(7, "MWEM", "Hardt et al. 2012", "I:( SW LM MW )", MwemPlan),
    PlanEntry(8, "AHP", "Zhang et al. 2014", "PA TR SI LM LS", AhpPlan),
    PlanEntry(9, "DAWA", "Li et al. 2014", "PD TR SG LM LS", DawaPlan),
    PlanEntry(10, "Quadtree", "Cormode et al. 2012", "SQ LM LS", QuadtreePlan),
    PlanEntry(11, "UniformGrid", "Qardaji et al. 2013", "SU LM LS", UniformGridPlan),
    PlanEntry(12, "AdaptiveGrid", "Qardaji et al. 2013", "SU LM LS PU TP[ SA LM]", AdaptiveGridPlan),
    PlanEntry(13, "HDMM", "McKenna et al. 2018", "SHD LM LS", HdmmPlan),
    PlanEntry(14, "DAWA-Striped", "NEW", "PS TP[ PD TR SG LM] LS", DawaStripedPlan),
    PlanEntry(15, "HB-Striped", "NEW", "PS TP[ SHB LM] LS", HbStripedPlan),
    PlanEntry(16, "HB-Striped_kron", "NEW", "SS LM LS", HbStripedKronPlan),
    PlanEntry(17, "PrivBayesLS", "NEW", "SPB LM LS", PrivBayesLsPlan),
    PlanEntry(18, "MWEM variant b", "NEW", "I:( SW SH2 LM MW )", MwemVariantB),
    PlanEntry(19, "MWEM variant c", "NEW", "I:( SW LM NLS )", MwemVariantC),
    PlanEntry(20, "MWEM variant d", "NEW", "I:( SW SH2 LM NLS )", MwemVariantD),
    PlanEntry(None, "PrivBayes", "Zhang et al. 2017", "SPB LM (factorised combine)", PrivBayesPlan),
]

PLANS_BY_NAME = {entry.name: entry for entry in PLAN_TABLE}
PLANS_BY_ID = {entry.plan_id: entry for entry in PLAN_TABLE if entry.plan_id is not None}


def get_plan(name: str, **kwargs) -> Plan:
    """Instantiate a plan by its Fig. 2 name."""
    if name not in PLANS_BY_NAME:
        raise KeyError(f"unknown plan {name!r}; available: {sorted(PLANS_BY_NAME)}")
    return PLANS_BY_NAME[name].factory(**kwargs)


def make_plan(name: str, params: Mapping[str, object] | None = None) -> Plan:
    """Parameterised registry lookup used by the service scheduler.

    ``params`` is the keyword-argument mapping a request carries (workload
    intervals, domain shapes, representations, ...); ``None`` means the plan's
    defaults.  An unknown name raises ``KeyError`` before any factory runs.
    """
    return get_plan(name, **dict(params or {}))
