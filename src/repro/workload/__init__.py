"""Workload builders (the query sets plans aim to answer)."""

from .builders import (
    WORKLOAD_BUILDERS,
    build_workload,
    census_prefix_income_workload,
    identity_workload,
    marginals_workload,
    naive_bayes_workload,
    prefix_workload,
    random_range_workload,
    two_way_marginals_workload,
    workload_cache_key,
)

__all__ = [
    "prefix_workload",
    "random_range_workload",
    "identity_workload",
    "two_way_marginals_workload",
    "census_prefix_income_workload",
    "naive_bayes_workload",
    "marginals_workload",
    "WORKLOAD_BUILDERS",
    "build_workload",
    "workload_cache_key",
]
