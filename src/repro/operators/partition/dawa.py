"""DAWA partition selection (the PD operator, Plan #9).

The first stage of DAWA (Li et al. 2014) spends a fraction of the budget on
finding a partition of the 1-D domain into contiguous intervals that are
approximately uniform, so that measuring only the interval totals (stage two)
loses little information while greatly reducing noise.

The original uses an L1-cost dynamic program over noisy interval costs with
interval lengths restricted to powers of two, for an O(n log n) running time.
This module keeps that structure, but not that cost: its cost pass sums
each candidate interval's deviations cell by cell, about 0.66·n² element
operations in all, so it is quadratic in n (2.98 s at n = 2^16 on a
two-core machine).  Item 6 of ROADMAP.md, DAWA on exact integer costs,
plans a cost pass without the quadratic term.  The steps:

1. spend ``epsilon`` on a noisy histogram (identity Laplace measurement),
2. compute, for every dyadic-length candidate interval, the (noisy) L1
   deviation-from-uniformity cost, corrected by the expected contribution of
   the Laplace noise,
3. run the dynamic program over interval end points to find the minimum-cost
   segmentation of the domain into candidate intervals.

Because only step 1 touches the private data, the operator is Private→Public
with cost exactly ``epsilon``; steps 2-3 are post-processing.

**Vectorized engine.**  The seed implementation issued one Python-level
``interval_cost`` call per (end point, dyadic length) pair — O(n log n) calls,
each slicing O(length) cells.  :func:`l1_partition` now precomputes every
dyadic-length interval cost with prefix sums, each deviation sum added in
the reference's own order (left to right below 8 cells, one ``np.add.reduce``
per chunk of windows from there on), leaving only the O(n) DP recurrence,
run on plain Python lists, and
:func:`l1_partition_batch` additionally vectorizes the DP *across* equal-length
histograms (the striped-plan hot path: one DAWA stage one per stripe), so k
stripes cost one pass of k-wide NumPy ops instead of k scalar DPs.  The
original scalar implementation is retained as :func:`_reference_l1_partition`;
the vectorized costs equal its costs bit for bit, so the assignments are
identical to it on every histogram, and property tests assert so.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ...matrix import Identity, ReductionMatrix
from ...private.protected import ProtectedDataSource


def _dyadic_lengths(n: int) -> list[int]:
    lengths = []
    length = 1
    while length <= n:
        lengths.append(length)
        length *= 2
    return lengths


def _reference_l1_partition(noisy: np.ndarray, noise_scale: float) -> np.ndarray:
    """Scalar reference implementation of the DAWA L1 partition DP.

    This is the seed implementation, retained verbatim as the ground truth for
    the vectorized engine: one Python-level ``interval_cost`` call per
    (end, dyadic length) pair.  Property tests assert :func:`l1_partition`
    returns identical assignments; benchmarks measure the speedup against it.
    """
    noisy = np.asarray(noisy, dtype=np.float64)
    n = noisy.size
    prefix = np.concatenate([[0.0], np.cumsum(noisy)])

    def interval_cost(lo: int, hi: int) -> float:
        """Cost of the inclusive interval [lo, hi]."""
        length = hi - lo + 1
        segment = noisy[lo : hi + 1]
        mean = (prefix[hi + 1] - prefix[lo]) / length
        deviation = float(np.abs(segment - mean).sum())
        corrected = max(deviation - noise_scale * length, 0.0)
        return corrected + noise_scale

    lengths = _dyadic_lengths(n)
    best_cost = np.full(n + 1, np.inf)
    best_cost[0] = 0.0
    back_pointer = np.zeros(n + 1, dtype=int)
    for end in range(1, n + 1):
        for length in lengths:
            start = end - length
            if start < 0:
                break
            cost = best_cost[start] + interval_cost(start, end - 1)
            if cost < best_cost[end]:
                best_cost[end] = cost
                back_pointer[end] = start

    assignment = np.zeros(n, dtype=int)
    boundaries = []
    position = n
    while position > 0:
        start = back_pointer[position]
        boundaries.append((start, position - 1))
        position = start
    for group, (lo, hi) in enumerate(reversed(boundaries)):
        assignment[lo : hi + 1] = group
    return assignment


#: The cost pass forms its windows in chunks of about this many elements
#: (``k * length`` per window), small enough to stay in cache.
_COST_CHUNK_ELEMENTS = 1 << 15

#: numpy's ``sum`` adds fewer than this many numbers left to right (its
#: pairwise summation starts at 8), so a shorter interval's deviations can be
#: accumulated one window offset at a time, across all windows, in its order.
_PAIRWISE_MIN_LENGTH = 8


def _dyadic_interval_costs(
    blocks: np.ndarray, noise_scale: float
) -> list[np.ndarray]:
    """Noise-corrected L1 costs of every dyadic-length interval, per histogram.

    ``blocks`` is a ``(k, m)`` stack of histograms.  Returns one ``(k, m-l+1)``
    array per dyadic length ``l``; entry ``[:, s]`` is the cost of the interval
    ``[s, s+l)`` in each histogram.  Interval means come from prefix sums.
    Every deviation sum is added in the order of the reference's per-interval
    ``sum``, so the costs equal the reference's bit for bit:

    * below :data:`_PAIRWISE_MIN_LENGTH` cells, left to right — one
      vectorized add per window offset across all windows and histograms;
    * from there on, pairwise — each chunk of windows is formed as contiguous
      ``(k, windows, l)`` rows of deviations and each row is summed by one
      ``np.add.reduce`` along it, the reference's own summation.

    No cost is ever computed by a per-interval Python call.
    """
    k, m = blocks.shape
    prefix = np.zeros((k, m + 1))
    np.cumsum(blocks, axis=1, out=prefix[:, 1:])
    costs = []
    for length in _dyadic_lengths(m):
        num_windows = m - length + 1
        means = (prefix[:, length:] - prefix[:, :-length]) / length
        if length < _PAIRWISE_MIN_LENGTH:
            deviations = np.abs(blocks[:, :num_windows] - means)
            for offset in range(1, length):
                deviations += np.abs(blocks[:, offset : offset + num_windows] - means)
        else:
            windows = sliding_window_view(blocks, length, axis=1)
            deviations = np.empty((k, num_windows))
            step = max(1, _COST_CHUNK_ELEMENTS // (k * length))
            for start in range(0, num_windows, step):
                chunk = windows[:, start : start + step] - means[:, start : start + step, None]
                np.abs(chunk, out=chunk)
                deviations[:, start : start + step] = np.add.reduce(chunk, axis=-1)
        costs.append(np.maximum(deviations - noise_scale * length, 0.0) + noise_scale)
    return costs


def _dp_single(costs: list[np.ndarray], lengths: list[int], m: int) -> list[int]:
    """O(m) DP over one histogram's precomputed interval costs.

    Plain-float inner loop over ``(length, cost row)`` pairs in ascending
    length, on Python lists: for a single histogram the constant factor of
    per-end NumPy dispatch exceeds the arithmetic, so Python floats are the
    fastest exact evaluator.  The strict ``<`` keeps the shortest of tied
    candidates, the reference's tie-break.  Returns the ``m+1`` back pointers.
    """
    candidates = [(length, cost[0].tolist()) for length, cost in zip(lengths, costs)]
    best = [0.0] * (m + 1)
    back = [0] * (m + 1)
    for end in range(1, m + 1):
        best_value = np.inf
        best_start = 0
        for length, row in candidates:
            start = end - length
            if start < 0:
                break
            value = best[start] + row[start]
            if value < best_value:
                best_value = value
                best_start = start
        best[end] = best_value
        back[end] = best_start
    return back


def _dp_batch(costs: list[np.ndarray], lengths: list[int], k: int, m: int) -> np.ndarray:
    """O(m) DP vectorized across ``k`` histograms; returns ``(m+1, k)`` back pointers.

    Interval costs are re-laid-out end-indexed once, so each DP step is a
    single fancy gather of the reachable ``best`` states plus one add, one
    argmin and one min over the ~log m candidate lengths — all k-wide.  The
    chosen lengths become back pointers in one op after the loop.
    """
    num_lengths = len(lengths)
    lengths_arr = np.asarray(lengths, dtype=np.intp)
    # end_costs[j, end, :] = cost of the interval of length lengths[j] ending at end.
    end_costs = np.full((num_lengths, m + 1, k), np.inf)
    for j, (length, cost) in enumerate(zip(lengths, costs)):
        end_costs[j, length:, :] = cost.T
    best = np.full((m + 1, k), np.inf)
    best[0] = 0.0
    choices = np.zeros((m + 1, k), dtype=np.intp)
    for end in range(1, m + 1):
        reachable = min(end.bit_length(), num_lengths)
        candidates = best[end - lengths_arr[:reachable]] + end_costs[:reachable, end]
        # First minimum wins, i.e. the shortest candidate interval — the same
        # tie-break as the reference's strict-< update over ascending lengths.
        choices[end] = candidates.argmin(axis=0)
        best[end] = candidates.min(axis=0)
    back = np.arange(m + 1)[:, None] - lengths_arr[choices]
    back[0] = 0
    return back


def _assignments_from_back_pointers(back: np.ndarray, k: int, m: int) -> np.ndarray:
    """Walk ``(m+1, k)`` back pointers to per-cell group ids, k-wide.

    Follows all k pointer chains in lock-step (a chain that reached 0 stays
    there, as ``back[0]`` is 0) and marks every interval start; group ids are
    then one cumulative sum (groups numbered left to right, exactly like the
    reference's backtrack).
    """
    starts = np.zeros((k, m), dtype=int)
    positions = np.full(k, m, dtype=np.intp)
    rows = np.arange(k)
    while positions.any():
        positions = back[positions, rows]
        starts[rows, positions] = 1
    return np.cumsum(starts, axis=1) - 1


def l1_partition_batch(blocks: np.ndarray, noise_scale: float) -> np.ndarray:
    """DAWA L1 partitions of a ``(k, m)`` stack of equal-length noisy histograms.

    Returns the ``(k, m)`` per-cell group assignments, one partition per
    histogram, identical to running :func:`l1_partition` on each row.  The
    interval costs and the DP recurrence are vectorized across the k
    histograms, which is where striped plans (one DAWA stage one per stripe)
    spend their partitioning time.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    if blocks.ndim != 2:
        raise ValueError("l1_partition_batch expects a (k, m) stack of histograms")
    k, m = blocks.shape
    if k == 0 or m == 0:
        return np.zeros((k, m), dtype=int)
    lengths = _dyadic_lengths(m)
    costs = _dyadic_interval_costs(blocks, noise_scale)
    if k == 1:
        back = np.asarray(_dp_single(costs, lengths, m))[:, None]
    else:
        back = _dp_batch(costs, lengths, k, m)
    return _assignments_from_back_pointers(back, k, m)


def l1_partition(noisy: np.ndarray, noise_scale: float) -> np.ndarray:
    """Minimum-L1-cost segmentation of a noisy histogram into dyadic-length intervals.

    The cost of an interval is the L1 deviation of its (noisy) cells from their
    mean, minus the expected contribution of the noise (``noise_scale`` per
    cell), floored at zero, plus a constant per-interval penalty equal to the
    noise scale — the same bias correction DAWA applies so that pure-noise
    regions are merged rather than split.

    Returns the per-cell group assignment, identical to the retained scalar
    :func:`_reference_l1_partition` on every float histogram: each interval
    cost is summed in the order of the reference's ``sum``, so the costs, the
    DP sums and the shortest-first tie-break all agree bit for bit.  The
    interval costs are precomputed with vectorized prefix-sum/window kernels
    and only the O(n) DP recurrence remains a loop.
    """
    noisy = np.asarray(noisy, dtype=np.float64)
    if noisy.ndim != 1:
        raise ValueError("l1_partition expects a 1-D histogram; use l1_partition_batch")
    if noisy.size == 0:
        return np.zeros(0, dtype=int)
    return l1_partition_batch(noisy[None, :], noise_scale)[0]


def dawa_partition(
    source: ProtectedDataSource, epsilon: float
) -> ReductionMatrix:
    """Select a DAWA stage-one partition of a protected vector source.

    Parameters
    ----------
    source:
        Protected handle to a 1-D vector source.
    epsilon:
        Budget spent on the noisy histogram driving the segmentation (the
        paper's ``rho * epsilon`` share).
    """
    n = source.domain_size
    noisy = source.vector_laplace(Identity(n), epsilon)
    noise_scale = 1.0 / epsilon
    return ReductionMatrix(l1_partition(noisy, noise_scale))
