"""Implicit linear-query matrix engine (reproduction of EKTELO Sec. 7).

The public surface of this subpackage:

* :class:`LinearQueryMatrix` — the abstract matrix interface (five primitive
  methods plus derived operations such as sensitivity and Gram matrices).
* Core matrices: :class:`Identity`, :class:`Ones`, :class:`Total`,
  :class:`Prefix`, :class:`Suffix`, :class:`HaarWavelet`.
* Explicit wrappers: :class:`DenseMatrix`, :class:`SparseMatrix`.
* Combinators: :class:`VStack` (union), :class:`HStack`, :class:`Product`,
  :class:`Kronecker`, :class:`Weighted`.
* Range-query constructions: :class:`RangeQueries`, :class:`RangeQueries2D`,
  :class:`HierarchicalQueries`.
* Marginals: :func:`marginal`, :func:`all_kway_marginals`.
* Partitions: :class:`ReductionMatrix`, :class:`ExpansionMatrix`.
"""

from .base import LinearQueryMatrix, TransposeMatrix, ensure_matrix, stack_all
from .combinators import HStack, Kronecker, Product, VStack, Weighted
from .core import HaarWavelet, Identity, Ones, Prefix, Suffix, Total
from .dense import DenseMatrix, SparseMatrix
from .marginals import all_kway_marginals, marginal
from .partition import ExpansionMatrix, ReductionMatrix
from .ranges import (
    HierarchicalQueries,
    RangeQueries,
    RangeQueries2D,
    hierarchical_intervals,
    optimal_branching_factor,
    quadtree_rects,
)

__all__ = [
    "LinearQueryMatrix",
    "TransposeMatrix",
    "ensure_matrix",
    "stack_all",
    "Identity",
    "Ones",
    "Total",
    "Prefix",
    "Suffix",
    "HaarWavelet",
    "DenseMatrix",
    "SparseMatrix",
    "VStack",
    "HStack",
    "Product",
    "Kronecker",
    "Weighted",
    "RangeQueries",
    "RangeQueries2D",
    "HierarchicalQueries",
    "hierarchical_intervals",
    "quadtree_rects",
    "optimal_branching_factor",
    "marginal",
    "all_kway_marginals",
    "ReductionMatrix",
    "ExpansionMatrix",
]
