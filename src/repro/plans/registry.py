"""Plan registry: the Fig. 2 table as code.

Maps plan names to factories, the plan classes themselves, plus the
citations the transparency example prints (``examples/plan_signatures.py``).
Each plan class is the one source of its Fig. 2 id and signature; an entry
reads them from its class.  Factories take the keyword arguments a plan
needs beyond the protected source and epsilon (workloads, domain shapes,
stripe axes, ...), so benchmarks can instantiate plans uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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
    """One row of the Fig. 2 plan table: its id and signature are its plan
    class's."""

    name: str
    citation: str
    factory: type[Plan]

    @property
    def plan_id(self) -> int | None:
        return self.factory.plan_id

    @property
    def signature(self) -> str:
        return self.factory.signature


PLAN_TABLE: list[PlanEntry] = [
    PlanEntry("Identity", "Dwork et al. 2006", IdentityPlan),
    PlanEntry("Privelet", "Xiao et al. 2010", PriveletPlan),
    PlanEntry("Hierarchical (H2)", "Hay et al. 2010", H2Plan),
    PlanEntry("Hierarchical Opt (HB)", "Qardaji et al. 2013", HbPlan),
    PlanEntry("Greedy-H", "Li et al. 2014", GreedyHPlan),
    PlanEntry("Uniform", "-", UniformPlan),
    PlanEntry("MWEM", "Hardt et al. 2012", MwemPlan),
    PlanEntry("AHP", "Zhang et al. 2014", AhpPlan),
    PlanEntry("DAWA", "Li et al. 2014", DawaPlan),
    PlanEntry("Quadtree", "Cormode et al. 2012", QuadtreePlan),
    PlanEntry("UniformGrid", "Qardaji et al. 2013", UniformGridPlan),
    PlanEntry("AdaptiveGrid", "Qardaji et al. 2013", AdaptiveGridPlan),
    PlanEntry("HDMM", "McKenna et al. 2018", HdmmPlan),
    PlanEntry("DAWA-Striped", "NEW", DawaStripedPlan),
    PlanEntry("HB-Striped", "NEW", HbStripedPlan),
    PlanEntry("HB-Striped_kron", "NEW", HbStripedKronPlan),
    PlanEntry("PrivBayesLS", "NEW", PrivBayesLsPlan),
    PlanEntry("MWEM variant b", "NEW", MwemVariantB),
    PlanEntry("MWEM variant c", "NEW", MwemVariantC),
    PlanEntry("MWEM variant d", "NEW", MwemVariantD),
    PlanEntry("PrivBayes", "Zhang et al. 2017", PrivBayesPlan),
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
