"""Data-independent query-selection operators with fixed strategies.

These operators depend only on public information (the domain size), so they
are Public operators in EKTELO's classification.  Each returns a measurement
matrix to be passed to Vector Laplace.
"""

from __future__ import annotations

import numpy as np

from ...matrix import (
    HaarWavelet,
    HierarchicalQueries,
    Identity,
    LinearQueryMatrix,
    Total,
    optimal_branching_factor,
)


def identity_select(n: int) -> LinearQueryMatrix:
    """Identity strategy: measure every cell of the data vector (Plan #1)."""
    return Identity(n)


def total_select(n: int) -> LinearQueryMatrix:
    """Total strategy: measure only the overall count (the Uniform plan, #6)."""
    return Total(n)


def wavelet_select(n: int) -> LinearQueryMatrix:
    """Privelet strategy: the Haar wavelet transform (Plan #2).

    The domain is implicitly padded to the next power of two by callers when
    needed; here we require a power-of-two domain and raise otherwise, keeping
    the operator a faithful transcription of the Privelet measurement set.
    """
    padded = 1 << int(np.ceil(np.log2(max(n, 1))))
    if padded != n:
        raise ValueError(
            f"wavelet selection requires a power-of-two domain (got {n}); "
            "pad the data vector or use h2_select instead"
        )
    return HaarWavelet(n)


def h2_select(n: int) -> LinearQueryMatrix:
    """H2 strategy: a binary hierarchy of interval counts plus unit counts (Plan #3)."""
    return HierarchicalQueries(n, branching=2)


def hb_select(n: int) -> LinearQueryMatrix:
    """HB strategy: a hierarchy with the branching factor optimised for ``n`` (Plan #4)."""
    return HierarchicalQueries(n, branching=optimal_branching_factor(n))
