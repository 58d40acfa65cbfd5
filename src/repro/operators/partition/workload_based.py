"""Workload-based partition selection (Sec. 8, Algorithm 4).

Two cells of the data vector can be merged without any loss for a workload
``W`` whenever their columns in ``W`` are identical — every workload query
either ignores both or treats them identically.  Algorithm 4 finds the groups
of identical columns *without materialising the workload*: it draws a random
vector ``v``, computes ``h = W.T v`` with one rmatvec, and groups equal values
of ``h``.  Two distinct columns collide with probability ~1e-16 per pair in
64-bit floating point; repeating the hash drives the failure probability to
zero, so we use a small fixed number of repetitions.

This operator is Public: it reads only the workload, never the private data.
"""

from __future__ import annotations

import numpy as np

from ...matrix import LinearQueryMatrix, ReductionMatrix, ensure_matrix


def workload_based_partition(
    workload: LinearQueryMatrix,
    repetitions: int = 2,
    seed: int = 0,
    decimals: int = 9,
) -> ReductionMatrix:
    """Compute the lossless workload-based reduction matrix ``P`` (Def. 8.2).

    Parameters
    ----------
    workload:
        The workload matrix ``W`` (implicit matrices are fine: only
        ``rmatvec`` is used).
    repetitions:
        Number of independent random projections to hash columns with;
        repetitions multiply the (already negligible) collision probability.
    seed:
        Seed of the random projections (a public choice).
    decimals:
        Rounding applied before grouping, which makes the grouping robust to
        floating-point round-off in implicit matvecs.
    """
    workload = ensure_matrix(workload)
    rng = np.random.default_rng(seed)
    m, n = workload.shape
    signatures = np.empty((repetitions, n))
    for r in range(repetitions):
        v = rng.uniform(0.0, 1.0, size=m)
        signatures[r] = workload.rmatvec(v)
    # Normalise each signature's scale before rounding so `decimals` is meaningful.
    scales = np.maximum(np.abs(signatures).max(axis=1, keepdims=True), 1.0)
    rounded = np.round(signatures / scales, decimals=decimals)
    _, assignment = np.unique(rounded, axis=1, return_inverse=True)
    return ReductionMatrix(assignment)
