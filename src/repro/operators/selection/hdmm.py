"""Simplified HDMM-style query selection (Plan #13).

The High-Dimensional Matrix Mechanism (McKenna et al. 2018) optimises a
measurement strategy for a workload expressed as (unions of) Kronecker
products, optimising each dimension's strategy separately and combining the
results with Kronecker products.

Full HDMM solves a non-convex optimisation over "p-Identity" strategy
parameterisations.  This reproduction keeps the architecture — per-dimension
strategy choice, Kronecker combination, sensitivity-aware scoring — but
selects each dimension's strategy from a small candidate set (Identity,
Total+Identity, H2, HB, Wavelet) by exact expected-error computation when the
per-dimension domain is small and by structural heuristics otherwise.  The
operator still adapts to the workload and scales through implicit matrices,
which is what the paper's evaluation exercises.
"""

from __future__ import annotations

import numpy as np

from ...matrix import (
    HaarWavelet,
    HierarchicalQueries,
    Identity,
    Kronecker,
    LinearQueryMatrix,
    Total,
    VStack,
    ensure_matrix,
    optimal_branching_factor,
)

#: Per-dimension domains above this size skip the exact expected-error scoring.
_EXACT_LIMIT = 1024


def _candidate_strategies(n: int) -> dict[str, LinearQueryMatrix]:
    candidates: dict[str, LinearQueryMatrix] = {
        "identity": Identity(n),
        "total+identity": VStack([Total(n), Identity(n)]),
        "h2": HierarchicalQueries(n, branching=2),
        "hb": HierarchicalQueries(n, branching=optimal_branching_factor(n)),
    }
    if n >= 2 and (n & (n - 1)) == 0:
        candidates["wavelet"] = HaarWavelet(n)
    return candidates


def expected_total_error(workload: LinearQueryMatrix, strategy: LinearQueryMatrix) -> float:
    """Expected total squared error of answering ``workload`` via ``strategy``.

    Uses the matrix-mechanism error formula ``||A||_1^2 * trace(W (A^T A)^+ W^T)``
    (Li et al. 2015), computed densely — only called for small domains.
    """
    W = ensure_matrix(workload).dense()
    A = ensure_matrix(strategy).dense()
    gram = A.T @ A
    pinv = np.linalg.pinv(gram)
    # If the strategy does not support the workload, the error is infinite.
    projection = W @ pinv @ gram
    if not np.allclose(projection, W, atol=1e-6):
        return float("inf")
    sensitivity = float(np.abs(A).sum(axis=0).max())
    return sensitivity**2 * float(np.trace(W @ pinv @ W.T))


def _score_heuristic(name: str, workload_kind: str) -> float:
    """Cheap strategy ranking when the domain is too large for exact scoring."""
    preference = {
        "total": ["total+identity", "identity", "hb", "h2", "wavelet"],
        "identity": ["identity", "total+identity", "hb", "h2", "wavelet"],
        "range": ["hb", "h2", "wavelet", "total+identity", "identity"],
        "prefix": ["hb", "h2", "wavelet", "total+identity", "identity"],
        "unknown": ["hb", "identity", "h2", "total+identity", "wavelet"],
    }[workload_kind]
    return float(preference.index(name)) if name in preference else float(len(preference))


def classify_workload_factor(factor: LinearQueryMatrix) -> str:
    """Structural classification of a per-dimension workload factor."""
    from ...matrix.core import Identity as IdentityCore
    from ...matrix.core import Ones, Prefix, Suffix, Total as TotalCore
    from ...matrix.ranges import RangeQueries

    if isinstance(factor, (TotalCore, Ones)):
        return "total"
    if isinstance(factor, IdentityCore):
        return "identity"
    if isinstance(factor, (Prefix, Suffix)):
        return "prefix"
    if isinstance(factor, RangeQueries):
        return "range"
    return "unknown"


def optimise_dimension(factor: LinearQueryMatrix) -> LinearQueryMatrix:
    """Choose a measurement strategy for one dimension of the workload."""
    n = factor.shape[1]
    candidates = _candidate_strategies(n)
    if n <= _EXACT_LIMIT:
        scores = {
            name: expected_total_error(factor, strategy) for name, strategy in candidates.items()
        }
        best = min(scores, key=scores.get)
        return candidates[best]
    kind = classify_workload_factor(factor)
    ranked = sorted(candidates, key=lambda name: _score_heuristic(name, kind))
    return candidates[ranked[0]]


def hdmm_select(workload: LinearQueryMatrix) -> LinearQueryMatrix:
    """HDMM-style strategy selection for a workload.

    If the workload is a Kronecker product (or a union of Kronecker products
    sharing the same factor shapes), each dimension is optimised independently
    and the per-dimension strategies are recombined with a Kronecker product.
    Otherwise the workload is treated as one-dimensional.
    """
    workload = ensure_matrix(workload)
    if isinstance(workload, Kronecker):
        return Kronecker([optimise_dimension(factor) for factor in workload.factors])
    if isinstance(workload, VStack):
        kron_parts = [m for m in workload.matrices if isinstance(m, Kronecker)]
        if kron_parts and len(kron_parts) == len(workload.matrices):
            num_dims = len(kron_parts[0].factors)
            if all(len(part.factors) == num_dims for part in kron_parts):
                strategies = []
                for dim in range(num_dims):
                    factors = [part.factors[dim] for part in kron_parts]
                    stacked = factors[0] if len(factors) == 1 else VStack(factors)
                    strategies.append(optimise_dimension(stacked))
                return Kronecker(strategies)
    return optimise_dimension(workload)
