"""AHP partition selection (the PA operator, Plan #8).

The AHP algorithm (Zhang et al. 2014) spends part of the budget on a noisy
histogram, thresholds small counts to zero, sorts the remaining noisy counts
and greedily clusters values that are close, producing a partition of the
domain whose groups have approximately uniform counts.  The partition is then
applied with V-ReduceByPartition and the group totals are re-measured.

This is a Private→Public operator: it consumes budget through the kernel's
Vector Laplace primitive; the clustering itself is post-processing of the
noisy histogram.

**Vectorized engine.**  The seed clustered cell-by-cell in a Python loop over
the sorted order.  :func:`cluster_sorted_counts` now scans each group's sorted
suffix with vectorized running means and break tests (geometrically growing
windows, so the total work stays linear in practice), producing assignments
identical to the retained scalar :func:`_reference_cluster_sorted_counts` —
the running group sums are cumulative sums in the same accumulation order, so
even the floating-point break decisions match bit for bit.
"""

from __future__ import annotations

import numpy as np

from ...matrix import Identity, ReductionMatrix
from ...private.protected import ProtectedDataSource

#: Initial vectorized scan window of :func:`cluster_sorted_counts`; windows
#: double until the group's break point is found, so a group of final size g
#: costs O(g) total work regardless of how the domain is split into groups.
_SCAN_WINDOW = 64


def _reference_cluster_sorted_counts(
    noisy: np.ndarray, gap_ratio: float = 0.5
) -> np.ndarray:
    """Scalar reference implementation of the AHP greedy clustering.

    The seed implementation, retained verbatim as ground truth: one Python
    iteration per cell in sorted order.  Property tests assert the vectorized
    :func:`cluster_sorted_counts` matches it exactly.
    """
    noisy = np.asarray(noisy, dtype=np.float64)
    order = np.argsort(noisy, kind="stable")
    assignment = np.zeros(noisy.size, dtype=int)
    group = 0
    group_start_value = noisy[order[0]] if noisy.size else 0.0
    group_sum = 0.0
    group_count = 0
    for rank, cell in enumerate(order):
        value = noisy[cell]
        if group_count > 0:
            group_mean = group_sum / group_count
            threshold = max(gap_ratio * max(abs(group_mean), 1.0), 1.0)
            if value - group_start_value > threshold:
                group += 1
                group_start_value = value
                group_sum = 0.0
                group_count = 0
        assignment[cell] = group
        group_sum += value
        group_count += 1
    return assignment


def _group_break(sorted_values: np.ndarray, start: int, gap_ratio: float) -> int:
    """Rank at which the group starting at ``start`` ends (exclusive).

    Scans the sorted suffix in geometrically growing windows.  The running
    group means are cumulative sums restarted at ``start`` — the same
    accumulation order as the scalar reference's ``group_sum`` — so the break
    test is evaluated on bit-identical floating-point values.
    """
    n = sorted_values.size
    window = _SCAN_WINDOW
    while True:
        hi = min(n, start + 1 + window)
        segment = sorted_values[start:hi]
        running_sums = np.cumsum(segment)
        counts = np.arange(1, segment.size)
        means = running_sums[:-1] / counts
        thresholds = np.maximum(gap_ratio * np.maximum(np.abs(means), 1.0), 1.0)
        breaks = segment[1:] - segment[0] > thresholds
        hit = int(np.argmax(breaks)) if breaks.size else 0
        if breaks.size and breaks[hit]:
            return start + 1 + hit
        if hi == n:
            return n
        window *= 2


def cluster_sorted_counts(noisy: np.ndarray, gap_ratio: float = 0.5) -> np.ndarray:
    """Group cells whose (sorted) noisy counts are close.

    Cells are sorted by noisy count; a new group starts whenever the jump to
    the next count exceeds ``gap_ratio`` times the running group mean (with an
    absolute floor of 1.0 to avoid splitting pure-noise cells).  Returns the
    per-cell group assignment in original cell order.

    Vectorized: one scan per *group* (not per cell), with the break point of
    each group located by windowed vectorized comparisons.  Assignments are
    identical to :func:`_reference_cluster_sorted_counts`.
    """
    noisy = np.asarray(noisy, dtype=np.float64)
    n = noisy.size
    assignment = np.zeros(n, dtype=int)
    if n == 0:
        return assignment
    order = np.argsort(noisy, kind="stable")
    sorted_values = noisy[order]
    group_of_rank = np.empty(n, dtype=int)
    group = 0
    start = 0
    while start < n:
        end = _group_break(sorted_values, start, gap_ratio)
        group_of_rank[start:end] = group
        group += 1
        start = end
    assignment[order] = group_of_rank
    return assignment


def ahp_partition(
    source: ProtectedDataSource,
    epsilon: float,
    eta: float = 0.35,
    gap_ratio: float = 0.5,
) -> ReductionMatrix:
    """Select an AHP partition of a protected vector source.

    Parameters
    ----------
    source:
        Protected handle to a vector source.
    epsilon:
        Budget spent on the noisy histogram used to form the partition.
    eta:
        Thresholding constant: noisy counts below ``eta * log(n) / epsilon``
        are treated as zero before clustering (AHP's sparsity filter).
    gap_ratio:
        Clustering aggressiveness (larger → coarser partitions).
    """
    n = source.domain_size
    noisy = source.vector_laplace(Identity(n), epsilon)
    cutoff = eta * np.log(max(n, 2)) / epsilon
    filtered = np.where(noisy < cutoff, 0.0, noisy)
    assignment = cluster_sorted_counts(filtered, gap_ratio=gap_ratio)
    return ReductionMatrix(assignment)
