"""Query-selection operators: choose which measurement matrix to ask."""

from .hdmm import classify_workload_factor, hdmm_select, optimise_dimension
from .hierarchical import (
    adaptive_grid_select,
    greedy_h_select,
    quadtree_select,
    uniform_grid_select,
)
from .privbayes import (
    mutual_information_score,
    privbayes_select,
    privbayes_synthetic_distribution,
)
from .simple import (
    h2_select,
    hb_select,
    identity_select,
    total_select,
    wavelet_select,
)
from .stripe import stripe_kron_select
from .worst_approx import augment_with_hierarchy, worst_approximated

__all__ = [
    "identity_select",
    "total_select",
    "wavelet_select",
    "h2_select",
    "hb_select",
    "greedy_h_select",
    "quadtree_select",
    "uniform_grid_select",
    "adaptive_grid_select",
    "hdmm_select",
    "optimise_dimension",
    "classify_workload_factor",
    "stripe_kron_select",
    "worst_approximated",
    "augment_with_hierarchy",
    "privbayes_select",
    "privbayes_synthetic_distribution",
    "mutual_information_score",
]
