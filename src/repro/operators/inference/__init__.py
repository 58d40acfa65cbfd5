"""Inference operators: estimate the data vector from noisy measurements."""

from .least_squares import (
    InferenceResult,
    NormalEquations,
    build_normal_equations,
    least_squares,
)
from .mult_weights import multiplicative_weights
from .nnls import nnls, nnls_with_total
from .thresholding import threshold
from .tree_based import hierarchical_measurements, tree_based_least_squares

__all__ = [
    "InferenceResult",
    "NormalEquations",
    "build_normal_equations",
    "least_squares",
    "nnls",
    "nnls_with_total",
    "multiplicative_weights",
    "threshold",
    "tree_based_least_squares",
    "hierarchical_measurements",
]
