"""Differentially-private Naive Bayes plans (Sec. 9.3).

Learning a Naive Bayes classifier with a binary label and k predictors needs
2k+1 one-dimensional histograms: the label histogram plus the label-by-value
joint histogram of every predictor.  The case study compares four ways of
estimating those histograms under a total budget epsilon:

* **Identity** (baseline, Plan #1 applied to the full contingency table) —
  measure every cell of the joint domain and marginalise the noisy table;
* **Workload** (the prior-work baseline, "Cormode") — measure the 2k+1
  histograms directly with Vector Laplace;
* **WorkloadLS** — Workload plus a least-squares inference step that makes the
  histograms consistent (a one-operator change that improves accuracy);
* **SelectLS** (Algorithm 8) — per-histogram subplans: large-domain histograms
  get a DAWA partition before measurement, small ones are measured directly;
  all measurements feed one global least-squares inference.

Each function takes a *training* :class:`Relation`, builds a fresh protected
kernel around it with the given budget, and returns a fitted
:class:`~repro.analysis.classify.NaiveBayesModel`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..analysis.classify import NaiveBayesModel, fit_naive_bayes_from_histograms
from ..dataset.relation import Relation
from ..matrix import Identity, LinearQueryMatrix, marginal
from ..matrix.combinators import Product, VStack
from ..operators.inference import least_squares
from ..operators.partition import dawa_partition, marginal_partition
from ..private.protected import protect
from ..workload import naive_bayes_workload
from .base import split_budget


def _histogram_shapes(
    relation: Relation, label: str, predictors: Sequence[str]
) -> tuple[list[int], int, list[int]]:
    domain = list(relation.schema.domain)
    label_axis = relation.schema.index_of(label)
    predictor_axes = [relation.schema.index_of(p) for p in predictors]
    return domain, label_axis, predictor_axes


def _split_workload_answers(
    answers: np.ndarray, domain: Sequence[int], label_axis: int, predictor_axes: Sequence[int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Split stacked naive-bayes workload answers into the label and joint tables."""
    label_size = domain[label_axis]
    label_histogram = answers[:label_size]
    joints = []
    offset = label_size
    for axis in predictor_axes:
        size = label_size * domain[axis]
        joints.append(answers[offset : offset + size].reshape(label_size, domain[axis]))
        offset += size
    return label_histogram, joints


def _histograms_from_vector(
    x_hat: np.ndarray, domain: Sequence[int], label_axis: int, predictor_axes: Sequence[int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Marginalise an estimated full-domain vector into the NB histograms."""
    label_matrix = marginal(domain, [label_axis])
    label_histogram = label_matrix.matvec(x_hat)
    joints = []
    for axis in predictor_axes:
        joint_matrix = marginal(domain, [label_axis, axis])
        joints.append(joint_matrix.matvec(x_hat).reshape(domain[label_axis], domain[axis]))
    return label_histogram, joints


def nb_identity(
    train: Relation, label: str, predictors: Sequence[str], epsilon: float, seed: int | None = None
) -> NaiveBayesModel:
    """Identity baseline: noisy full contingency table, then marginalise."""
    domain, label_axis, predictor_axes = _histogram_shapes(train, label, predictors)
    source = protect(train, epsilon, seed=seed).vectorize()
    noisy = source.vector_laplace(Identity(source.domain_size), epsilon)
    label_histogram, joints = _histograms_from_vector(noisy, domain, label_axis, predictor_axes)
    return fit_naive_bayes_from_histograms(label_histogram, joints)


def nb_workload(
    train: Relation, label: str, predictors: Sequence[str], epsilon: float, seed: int | None = None
) -> NaiveBayesModel:
    """Workload baseline ("Cormode"): measure the 2k+1 histograms directly."""
    domain, label_axis, predictor_axes = _histogram_shapes(train, label, predictors)
    workload = naive_bayes_workload(domain, label_axis, predictor_axes)
    source = protect(train, epsilon, seed=seed).vectorize()
    answers = source.vector_laplace(workload, epsilon)
    label_histogram, joints = _split_workload_answers(answers, domain, label_axis, predictor_axes)
    return fit_naive_bayes_from_histograms(label_histogram, joints)


def nb_workload_ls(
    train: Relation, label: str, predictors: Sequence[str], epsilon: float, seed: int | None = None
) -> NaiveBayesModel:
    """WorkloadLS: the Workload plan followed by least-squares inference."""
    domain, label_axis, predictor_axes = _histogram_shapes(train, label, predictors)
    workload = naive_bayes_workload(domain, label_axis, predictor_axes)
    source = protect(train, epsilon, seed=seed).vectorize()
    answers = source.vector_laplace(workload, epsilon)
    estimate = least_squares(workload, answers)
    x_hat = np.clip(estimate.x_hat, 0.0, None)
    label_histogram, joints = _histograms_from_vector(x_hat, domain, label_axis, predictor_axes)
    return fit_naive_bayes_from_histograms(label_histogram, joints)


def nb_select_ls(
    train: Relation,
    label: str,
    predictors: Sequence[str],
    epsilon: float,
    seed: int | None = None,
    large_domain_threshold: int = 80,
    dawa_share: float = 0.25,
) -> NaiveBayesModel:
    """SelectLS (Algorithm 8): per-histogram subplans with a global LS inference.

    For each of the 2k+1 histograms the full-domain vector is reduced to the
    corresponding marginal; histograms over more than ``large_domain_threshold``
    cells first get a DAWA partition (spending ``dawa_share`` of that
    histogram's budget), the rest are measured cell-by-cell.  All measurements
    are mapped back to the full domain and combined with least squares.
    """
    domain, label_axis, predictor_axes = _histogram_shapes(train, label, predictors)
    histogram_axes: list[list[int]] = [[label_axis]] + [
        [label_axis, axis] for axis in predictor_axes
    ]
    per_histogram_epsilon = epsilon / len(histogram_axes)
    dawa_epsilon, dawa_measure_epsilon = split_budget(per_histogram_epsilon, dawa_share)
    source = protect(train, epsilon, seed=seed).vectorize()

    measurement_parts: list[LinearQueryMatrix] = []
    answer_parts: list[np.ndarray] = []
    for axes in histogram_axes:
        reduction = marginal_partition(domain, axes)
        reduced = source.reduce_by_partition(reduction)
        marginal_size = reduced.domain_size
        # The reduced vector's queries act on the full domain through the
        # partition matrix: a measurement M on x' equals (M P) on x.
        if marginal_size > large_domain_threshold:
            group_partition = dawa_partition(reduced, dawa_epsilon)
            grouped = reduced.reduce_by_partition(group_partition)
            answers = grouped.vector_laplace(Identity(grouped.domain_size), dawa_measure_epsilon)
            full_domain_queries = Product(group_partition, reduction)
        else:
            answers = reduced.vector_laplace(Identity(marginal_size), per_histogram_epsilon)
            full_domain_queries = reduction
        measurement_parts.append(full_domain_queries)
        answer_parts.append(answers)

    stacked = VStack(measurement_parts)
    estimate = least_squares(stacked, np.concatenate(answer_parts))
    x_hat = np.clip(estimate.x_hat, 0.0, None)
    label_histogram, joints = _histograms_from_vector(x_hat, domain, label_axis, predictor_axes)
    return fit_naive_bayes_from_histograms(label_histogram, joints)


#: Registry of the DP Naive Bayes fitting procedures compared in Fig. 3.
NAIVE_BAYES_PLANS = {
    "Identity": nb_identity,
    "Workload": nb_workload,
    "WorkloadLS": nb_workload_ls,
    "SelectLS": nb_select_ls,
}
