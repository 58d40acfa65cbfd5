"""Partition-selection operators: choose a partition matrix P for reduce/split."""

from .ahp import ahp_partition, cluster_sorted_counts
from .dawa import dawa_partition, l1_partition, l1_partition_batch
from .structural import grid_partition, marginal_partition, stripe_partition
from .workload_based import workload_based_partition

__all__ = [
    "ahp_partition",
    "cluster_sorted_counts",
    "dawa_partition",
    "l1_partition",
    "l1_partition_batch",
    "workload_based_partition",
    "stripe_partition",
    "grid_partition",
    "marginal_partition",
]
