"""Error metrics and the analysis engine's expected error, Naive Bayes
classification and AUC (Sec. 9.3), and the table formatting the benchmarks
print."""

from .classify import (
    CrossValidationResult,
    NaiveBayesModel,
    cross_validate_auc,
    fit_naive_bayes_exact,
    fit_naive_bayes_from_histograms,
    majority_auc,
    roc_auc,
)
from .error import expected_workload_error, measurement_noise_variance, per_query_l2_error
from .experiments import format_table, improvement_factors

__all__ = [
    "per_query_l2_error",
    "expected_workload_error",
    "measurement_noise_variance",
    "NaiveBayesModel",
    "fit_naive_bayes_from_histograms",
    "fit_naive_bayes_exact",
    "roc_auc",
    "cross_validate_auc",
    "CrossValidationResult",
    "majority_auc",
    "format_table",
    "improvement_factors",
]
