"""Inference operators: estimate the data vector from noisy measurements."""

from .least_squares import (
    InferenceResult,
    NormalEquations,
    build_normal_equations,
    least_squares,
    least_squares_from_parts,
)
from .mult_weights import estimate_total, multiplicative_weights
from .nnls import nnls, nnls_with_total
from .thresholding import threshold
from .tree_based import hierarchical_measurements, tree_based_least_squares

__all__ = [
    "InferenceResult",
    "NormalEquations",
    "build_normal_equations",
    "least_squares",
    "least_squares_from_parts",
    "nnls",
    "nnls_with_total",
    "estimate_total",
    "multiplicative_weights",
    "threshold",
    "tree_based_least_squares",
    "hierarchical_measurements",
]
