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

__all__ = [
    "InferenceResult",
    "NormalEquations",
    "build_normal_equations",
    "least_squares",
    "nnls",
    "nnls_with_total",
    "multiplicative_weights",
    "threshold",
]
