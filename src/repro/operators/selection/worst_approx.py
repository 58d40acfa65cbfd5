"""Worst-approximated query selection (the MWEM selection operator).

A Private→Public operator: it consults the private data (through the protected
kernel's exponential mechanism) to choose the workload query whose current
estimate is worst, i.e. the query maximising ``|q·x - q·x̂|``.

The augmented variant (used by MWEM variant b / d, Sec. 9.1) additionally
returns non-overlapping interval queries that can be measured "for free" under
parallel composition, building up a binary hierarchy across MWEM rounds.
"""

from __future__ import annotations

import numpy as np

from ...matrix import LinearQueryMatrix, RangeQueries, VStack, ensure_matrix
from ...private.protected import ProtectedDataSource

#: Cells of one block of workload rows read by :func:`_score_sensitivity`.
_ROW_BLOCK_CELLS = 1 << 20


def worst_approximated(
    source: ProtectedDataSource,
    workload: LinearQueryMatrix,
    x_estimate: np.ndarray,
    epsilon: float,
) -> tuple[int, np.ndarray]:
    """Select the workload query worst approximated by ``x_estimate``.

    Returns the selected query's index and its dense row.  Consumes ``epsilon``
    of the budget through the kernel's exponential mechanism, at the score
    sensitivity of :func:`_score_sensitivity` (1 for counting queries).
    """
    workload = ensure_matrix(workload)
    x_estimate = np.asarray(x_estimate, dtype=np.float64)
    estimate_answers = workload.matvec(x_estimate)

    def scores(x: np.ndarray) -> np.ndarray:
        return np.abs(workload.matvec(x) - estimate_answers)

    index = source.exponential_mechanism(
        scores, workload.shape[0], epsilon, _score_sensitivity(workload)
    )
    return index, workload.row(index)


def _score_sensitivity(workload: LinearQueryMatrix) -> float:
    """Δu of the score ``|w_i·x - w_i·x̂|``: the largest ``|w_ij|``, since one
    record moves one cell of ``x`` by one.  Read a block of public rows at a
    time (never the whole implicit matrix), once per workload object; an
    all-zero workload, whose scores are all 0, keeps Δu = 1."""
    computed = workload.__dict__.get("_score_sensitivity")
    if computed is None:
        m, n = workload.shape
        step = max(1, _ROW_BLOCK_CELLS // n)
        largest = max(
            float(np.abs(workload.rows(np.arange(lo, min(lo + step, m)))).max())
            for lo in range(0, m, step)
        )
        computed = workload.__dict__["_score_sensitivity"] = largest or 1.0
    return computed


def _row_support(row: np.ndarray) -> tuple[int, int]:
    """Smallest and largest index with a non-zero coefficient in the query row."""
    nonzero = np.nonzero(row)[0]
    if nonzero.size == 0:
        return 0, -1
    return int(nonzero[0]), int(nonzero[-1])


def augment_with_hierarchy(
    selected_row: np.ndarray, round_index: int, n: int
) -> LinearQueryMatrix:
    """MWEM variant b's augmented selection (Sec. 9.1).

    Starting from the selected query, add disjoint interval queries that do not
    intersect its support: length-``2^round_index`` intervals tiling the rest
    of the domain.  Because all returned queries are disjoint, measuring the
    whole set costs the same budget as measuring the single selected query
    (parallel composition within one Vector Laplace call: sensitivity stays 1).
    """
    selected_row = np.asarray(selected_row, dtype=np.float64)
    lo, hi = _row_support(selected_row)
    length = max(1, 2 ** max(round_index, 0))
    intervals: list[tuple[int, int]] = []
    position = 0
    while position < n:
        end = min(position + length - 1, n - 1)
        # Skip intervals overlapping the selected query's support.
        if hi < lo or end < lo or position > hi:
            intervals.append((position, end))
        position = end + 1

    from ...matrix.dense import DenseMatrix

    selected = DenseMatrix(selected_row.reshape(1, -1))
    if not intervals:
        return selected
    return VStack([selected, RangeQueries(n, intervals)])
