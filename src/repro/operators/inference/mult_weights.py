"""Multiplicative-weights inference (MWEM's ``MW`` operator, Sec. 5.5).

The multiplicative-weights update maintains a non-negative estimate ``x̂`` of
the data vector with a fixed total and repeatedly reweights cells according to
how much each measured query under- or over-estimates its noisy answer:

    x̂ ← x̂ ⊙ exp( q * (y - q·x̂) / (2 * total) )        for each query q,

followed by renormalisation to the total.  This is closely related to
maximum-entropy inference and is most effective when the measured query set is
incomplete.  Only matvec/rmatvec are needed, so implicit matrices work.

**Support-sparse updates.**  A counting-query row is typically non-zero on a
short range of the domain, yet the textbook update exponentiates every cell —
``exp(0) = 1`` everywhere outside the support.  The update therefore extracts
each row's non-zero support once (reused across all passes for cached rows)
and applies the exponential only on the support, leaving off-support cells
untouched.  Because the off-support factor is *exactly* 1, the trajectory is
bit-identical to the dense update; only the wasted ``exp`` calls disappear.
"""

from __future__ import annotations

import numpy as np

from ...matrix import LinearQueryMatrix, ensure_matrix
from .least_squares import InferenceResult


#: Largest row-cache size (``num_queries * domain_size`` doubles) that
#: :func:`multiplicative_weights` materialises up front.  Above this the rows
#: are still extracted through the vectorized blocked kernel, but one block at
#: a time inside each pass to bound memory.
_ROW_CACHE_CELLS = 16_777_216

_ROW_BLOCK = 256

#: ``support_sparse=None`` applies the support-sparse exponential to rows
#: whose support covers at most this fraction of the domain; denser rows keep
#: the plain dense update (the gather overhead would exceed the saved exps).
_SUPPORT_DENSITY = 0.5


def _row_supports(rows: np.ndarray, support_sparse: bool | None) -> list:
    """Per-row ``(indices, values)`` supports, or ``None`` where dense is better.

    ``support_sparse`` mirrors the :func:`multiplicative_weights` parameter:
    ``None`` keeps the support only when it is small enough to win
    (:data:`_SUPPORT_DENSITY`), ``True`` forces it, ``False`` disables it.
    """
    if support_sparse is False:
        return [None] * rows.shape[0]
    cutoff = rows.shape[1] if support_sparse else _SUPPORT_DENSITY * rows.shape[1]
    supports = []
    for row in rows:
        indices = np.flatnonzero(row)
        supports.append((indices, row[indices]) if indices.size <= cutoff else None)
    return supports


def _pass_rows(
    queries: LinearQueryMatrix,
    cached: np.ndarray | None,
    cached_supports: list | None,
    support_sparse: bool | None,
):
    """Yield ``(i, row_i, support_i)`` for one MW pass without per-row rmatvec calls."""
    if cached is not None:
        for i, row in enumerate(cached):
            yield i, row, cached_supports[i]
        return
    num_queries = queries.shape[0]
    for lo in range(0, num_queries, _ROW_BLOCK):
        block = queries.rows(np.arange(lo, min(lo + _ROW_BLOCK, num_queries)))
        supports = _row_supports(block, support_sparse)
        for offset, row in enumerate(block):
            yield lo + offset, row, supports[offset]


def multiplicative_weights(
    queries: LinearQueryMatrix,
    answers: np.ndarray,
    total: float,
    x0: np.ndarray | None = None,
    iterations: int = 50,
    support_sparse: bool | None = None,
    row_cache: np.ndarray | None = None,
) -> InferenceResult:
    """Estimate the data vector with the multiplicative-weights update rule.

    Parameters
    ----------
    queries:
        Measurement matrix ``M`` (rows are assumed to have entries in [0, 1],
        as is the case for counting queries).
    answers:
        Noisy answers ``y``.
    total:
        Total number of records, MWEM's assumption of a known total.
    x0:
        Starting estimate; defaults to the uniform distribution over the domain
        scaled to ``total``.
    iterations:
        Number of passes over the query set.  Each pass applies the classic
        one-query-at-a-time (Gauss–Seidel) update, numerically identical to
        the seed implementation, but takes the query rows from the blocked
        :meth:`~repro.matrix.base.LinearQueryMatrix.rows` kernel instead of
        issuing one rmatvec per query per pass.
    support_sparse:
        Exponential policy.  ``None`` (default) applies the exponential only
        on a row's non-zero support whenever the support is small enough to
        win; ``True``/``False`` force the support-sparse or dense update.  All
        three settings produce bit-identical trajectories (``exp(0) = 1``
        exactly); the flag exists for benchmarks and tests.
    row_cache:
        Optional pre-extracted dense rows of ``queries`` (shape ``(m, n)``).
        Callers that grow a measurement set incrementally (the MWEM loop of
        :class:`~repro.plans.data_dependent.MwemPlan`) pass the rows they
        already hold, skipping re-extraction.
    """
    queries = ensure_matrix(queries)
    answers = np.asarray(answers, dtype=np.float64)
    if answers.shape != (queries.shape[0],):
        raise ValueError("answers do not match the number of queries")
    n = queries.shape[1]

    total = max(float(total), 1e-9)

    if x0 is None:
        x_hat = np.full(n, total / n)
    else:
        x_hat = np.clip(np.asarray(x0, dtype=np.float64), 1e-12, None)
        x_hat *= total / x_hat.sum()

    num_queries = queries.shape[0]
    cached = None
    cached_supports = None
    if row_cache is not None:
        row_cache = np.asarray(row_cache, dtype=np.float64)
        if row_cache.shape != queries.shape:
            raise ValueError(
                f"row_cache of shape {row_cache.shape} does not match the "
                f"{queries.shape} query matrix"
            )
        cached = row_cache
    elif num_queries * n <= _ROW_CACHE_CELLS:
        cached = queries.rows(np.arange(num_queries))
    if cached is not None:
        # Supports are extracted once and reused by every pass.
        cached_supports = _row_supports(cached, support_sparse)
    for _ in range(iterations):
        for i, row, support in _pass_rows(queries, cached, cached_supports, support_sparse):
            estimate = float(row @ x_hat)
            error = answers[i] - estimate
            # Standard MW step size from Hardt-Ligett-McSherry.
            if support is None:
                x_hat = x_hat * np.exp(row * error / (2.0 * total))
            else:
                indices, values = support
                x_hat[indices] = x_hat[indices] * np.exp(values * error / (2.0 * total))
            x_hat *= total / x_hat.sum()

    residual = float(np.linalg.norm(queries.matvec(x_hat) - answers))
    return InferenceResult(x_hat, iterations=iterations, residual_norm=residual)

