"""Error metrics used in the paper's evaluation.

The evaluation reports *scaled, per-query L2 error*: the L2 norm of the
difference between true and estimated workload answers, divided by the number
of queries and by the number of records (the "scale"), so results are
comparable across domains and dataset sizes.  The matrix-mechanism
expected error of a workload answered through a strategy (Theorem 5.3 /
Theorem 8.4; one query is a one-row workload) is provided for analytic
comparisons.

:func:`expected_workload_error` is routed through the normal-equations
engine: the strategy is prepared once with
:func:`~repro.operators.inference.build_normal_equations`, in whichever of its
four kinds it allows (the two tree passes for hierarchies, the
orthogonal-rows closed form ``Mᵀ D⁻² M`` for Haar and partitions, the sparse
LU of the augmented system ``[[I, M], [Mᵀ, 0]]`` for other sparse
strategies, or a Cholesky-factored dense Gram),
then every workload row is one solve against that factor inside
one blocked trace computation ``tr(W G⁺ Wᵀ)``.  The seed recomputed
``pinv(AᵀA)`` anew for every workload row — O(m·n³) against the dense kind's
O(n³ + m·n²) — which is what the ``expected_error`` section of
``BENCH_data_dependent.json`` measures.
"""

from __future__ import annotations

import numpy as np

from ..matrix import LinearQueryMatrix, ensure_matrix
from ..operators.inference import build_normal_equations

#: Workload rows are materialised and solved in blocks of this many rows, so
#: scratch memory stays at ``2 * block * n`` doubles for any workload size.
_ERROR_ROW_BLOCK = 1024


def per_query_l2_error(
    workload: LinearQueryMatrix,
    true_vector: np.ndarray,
    estimate: np.ndarray,
    scale: float | None = None,
) -> float:
    """Scaled per-query L2 error of a workload estimate.

    Parameters
    ----------
    workload:
        The workload matrix ``W``.
    true_vector:
        The true data vector ``x``.
    estimate:
        The estimated data vector ``x̂`` (same length as ``x``).
    scale:
        Normalising constant; defaults to the number of records ``sum(x)``.
    """
    workload = ensure_matrix(workload)
    true_vector = np.asarray(true_vector, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    difference = workload.matvec(estimate) - workload.matvec(true_vector)
    if scale is None:
        scale = max(float(true_vector.sum()), 1.0)
    return float(np.linalg.norm(difference) / (workload.shape[0] * scale))


def measurement_noise_variance(
    strategy: LinearQueryMatrix,
    epsilon: float,
    noise: str = "laplace",
    delta: float = 1e-6,
) -> float:
    """Per-measurement noise variance of a strategy at a privacy target.

    ``laplace``: ``2·(||A||₁/ε)²`` (Laplace noise has variance ``2b²``).
    ``gaussian``: ``σ²`` with the analytic calibration
    ``σ = ||A||₂·sqrt(2·ln(1.25/δ))/ε`` — the accountant-independent bound
    (a zCDP accountant calibrates slightly tighter at the same target).
    The L1-vs-L2 sensitivity split is the whole story of the Laplace/Gaussian
    trade-off: strategies whose columns are long but spread out (Prefix,
    dense hierarchies) have ``||A||₂ ≪ ||A||₁`` and win under Gaussian noise.
    """
    if noise == "laplace":
        scale = strategy.sensitivity() / epsilon
        return 2.0 * scale * scale
    if noise == "gaussian":
        from ..accounting.base import gaussian_analytic_sigma

        sigma = gaussian_analytic_sigma(strategy.sensitivity_l2(), epsilon, delta)
        return sigma * sigma
    raise ValueError(f"unknown noise kind {noise!r}; expected 'laplace' or 'gaussian'")


def expected_workload_error(
    workload: LinearQueryMatrix,
    strategy: LinearQueryMatrix,
    epsilon: float = 1.0,
    noise: str = "laplace",
    delta: float = 1e-6,
) -> float:
    """Expected total squared error of a workload answered via a strategy.

    Matrix-mechanism formula ``Var · tr(W (AᵀA)⁺ Wᵀ)`` where ``Var`` is the
    per-measurement noise variance of :func:`measurement_noise_variance` —
    ``2·||A||₁²/ε²`` for Laplace, ``σ²(ε, δ)`` from the L2 sensitivity for
    Gaussian.  The strategy is factorised *once* through
    :func:`build_normal_equations`, then workload rows are materialised in
    blocks and each block contributes ``Σᵢ qᵢ · G⁺qᵢ`` to the trace.
    Rank-deficient strategies get the factorisation's minimum-norm solve,
    matching the pseudo-inverse semantics of the analytic formula.
    """
    workload = ensure_matrix(workload)
    strategy = ensure_matrix(strategy)
    if workload.shape[1] != strategy.shape[1]:
        raise ValueError(
            f"workload over {workload.shape[1]} cells does not match a strategy "
            f"over {strategy.shape[1]} cells"
        )
    normal = build_normal_equations(strategy)
    num_queries = workload.shape[0]
    trace = 0.0
    for lo in range(0, num_queries, _ERROR_ROW_BLOCK):
        rows = workload.rows(np.arange(lo, min(lo + _ERROR_ROW_BLOCK, num_queries)))
        solved = np.asarray(normal.solve(rows.T))
        trace += float(np.einsum("ij,ji->", rows, solved))
    return measurement_noise_variance(strategy, epsilon, noise=noise, delta=delta) * trace
