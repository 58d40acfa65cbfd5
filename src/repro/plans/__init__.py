"""Plan library: the algorithms of Fig. 2 plus the case-study plans."""

from .base import Plan, PlanResult, with_representation
from .cdf import cdf_estimator
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
from .naive_bayes import (
    NAIVE_BAYES_PLANS,
    nb_identity,
    nb_select_ls,
    nb_workload,
    nb_workload_ls,
)
from .privbayes import PrivBayesLsPlan, PrivBayesPlan
from .registry import (
    PLAN_TABLE,
    PLANS_BY_ID,
    PLANS_BY_NAME,
    get_plan,
    make_plan,
)
from .striped import DawaStripedPlan, HbStripedKronPlan, HbStripedPlan

__all__ = [
    "Plan",
    "PlanResult",
    "with_representation",
    "IdentityPlan",
    "UniformPlan",
    "PriveletPlan",
    "H2Plan",
    "HbPlan",
    "GreedyHPlan",
    "QuadtreePlan",
    "UniformGridPlan",
    "HdmmPlan",
    "MwemPlan",
    "AhpPlan",
    "DawaPlan",
    "AdaptiveGridPlan",
    "MwemVariantB",
    "MwemVariantC",
    "MwemVariantD",
    "HbStripedPlan",
    "DawaStripedPlan",
    "HbStripedKronPlan",
    "PrivBayesPlan",
    "PrivBayesLsPlan",
    "cdf_estimator",
    "nb_identity",
    "nb_workload",
    "nb_workload_ls",
    "nb_select_ls",
    "NAIVE_BAYES_PLANS",
    "PLAN_TABLE",
    "PLANS_BY_NAME",
    "PLANS_BY_ID",
    "get_plan",
    "make_plan",
]
