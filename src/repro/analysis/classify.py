"""Naive Bayes classification from (noisy) histograms and AUC evaluation (Sec. 9.3).

The case study fits a multinomial Naive Bayes classifier from the 2k+1
one-dimensional histograms estimated by a DP plan: the label histogram plus,
for every predictor, the predictor histogram conditioned on each label value.
This module provides the classifier, the ROC-AUC metric and the repeated
k-fold cross-validation harness used by the Fig. 3 experiment — all
implemented from scratch (no scikit-learn dependency).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..dataset.relation import Relation


@dataclass
class NaiveBayesModel:
    """Fitted multinomial Naive Bayes parameters.

    ``class_log_prior[c]`` is ``log P(Y=c)``; ``feature_log_prob[j][c, v]`` is
    ``log P(X_j = v | Y = c)``.
    """

    class_log_prior: np.ndarray
    feature_log_prob: list[np.ndarray]

    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        """Log-odds of the positive class for each record (higher = class 1)."""
        features = np.asarray(features, dtype=np.int64)
        log_posterior = np.tile(self.class_log_prior, (features.shape[0], 1))
        for j, table in enumerate(self.feature_log_prob):
            values = np.clip(features[:, j], 0, table.shape[1] - 1)
            log_posterior += table[:, values].T
        return log_posterior[:, 1] - log_posterior[:, 0]


def fit_naive_bayes_from_histograms(
    label_histogram: np.ndarray,
    joint_histograms: Sequence[np.ndarray],
    smoothing: float = 1.0,
) -> NaiveBayesModel:
    """Fit the classifier from a label histogram and per-feature joint histograms.

    Parameters
    ----------
    label_histogram:
        Length-2 array of (possibly noisy) label counts.
    joint_histograms:
        For each predictor, a ``(2, feature_domain)`` array of label-by-value
        counts (noisy counts are clipped to be non-negative).
    smoothing:
        Laplace (add-``smoothing``) smoothing of the conditional distributions.
    """
    label_counts = np.clip(np.asarray(label_histogram, dtype=np.float64), 0.0, None)
    if label_counts.shape != (2,):
        raise ValueError("the label histogram must have exactly two entries")
    label_counts = label_counts + smoothing
    class_log_prior = np.log(label_counts / label_counts.sum())

    feature_log_prob = []
    for joint in joint_histograms:
        joint = np.clip(np.asarray(joint, dtype=np.float64), 0.0, None) + smoothing
        conditional = joint / joint.sum(axis=1, keepdims=True)
        feature_log_prob.append(np.log(conditional))
    return NaiveBayesModel(class_log_prior, feature_log_prob)


def fit_naive_bayes_exact(
    relation: Relation, label: str, predictors: Sequence[str], smoothing: float = 1.0
) -> NaiveBayesModel:
    """Fit the non-private (Unperturbed) classifier directly from the data."""
    label_column = relation.column(label)
    label_histogram = np.bincount(label_column, minlength=2).astype(np.float64)
    joints = []
    for predictor in predictors:
        size = relation.schema[predictor].size
        joint = np.zeros((2, size))
        values = relation.column(predictor)
        for c in (0, 1):
            joint[c] = np.bincount(values[label_column == c], minlength=size)
        joints.append(joint)
    return fit_naive_bayes_from_histograms(label_histogram, joints, smoothing=smoothing)


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve via the rank statistic (ties handled by averaging)."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    positives = scores[labels == 1]
    negatives = scores[labels == 0]
    if positives.size == 0 or negatives.size == 0:
        return 0.5
    order = np.argsort(np.concatenate([negatives, positives]), kind="stable")
    ranks = np.empty(order.size, dtype=np.float64)
    ranks[order] = np.arange(1, order.size + 1)
    # Average ranks over ties.
    combined = np.concatenate([negatives, positives])
    sorted_combined = np.sort(combined)
    unique, start = np.unique(sorted_combined, return_index=True)
    for value, s in zip(unique, start):
        mask = combined == value
        tie_ranks = ranks[mask]
        ranks[mask] = tie_ranks.mean()
    positive_ranks = ranks[negatives.size :]
    u_statistic = positive_ranks.sum() - positives.size * (positives.size + 1) / 2.0
    return float(u_statistic / (positives.size * negatives.size))


@dataclass
class CrossValidationResult:
    """Per-fold AUCs plus convenience percentiles."""

    aucs: np.ndarray

    @property
    def median(self) -> float:
        return float(np.median(self.aucs))

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.aucs, q))


def cross_validate_auc(
    relation: Relation,
    label: str,
    predictors: Sequence[str],
    fit_fn: Callable[[Relation], NaiveBayesModel],
    folds: int = 10,
    repeats: int = 1,
    seed: int = 0,
) -> CrossValidationResult:
    """Repeated k-fold cross-validation of a classifier-fitting procedure.

    ``fit_fn`` receives the training fold as a :class:`Relation` and returns a
    fitted :class:`NaiveBayesModel`; DP fitting procedures consume privacy
    budget inside ``fit_fn`` (a fresh kernel per fold, matching the paper's
    per-run budget accounting).
    """
    rng = np.random.default_rng(seed)
    label_idx = relation.schema.index_of(label)
    predictor_idx = [relation.schema.index_of(p) for p in predictors]
    records = relation.records
    aucs = []
    for _ in range(repeats):
        permutation = rng.permutation(len(relation))
        fold_edges = np.linspace(0, len(relation), folds + 1).astype(int)
        for f in range(folds):
            test_idx = permutation[fold_edges[f] : fold_edges[f + 1]]
            train_idx = np.setdiff1d(permutation, test_idx, assume_unique=True)
            train = Relation(relation.schema, records[train_idx])
            test = records[test_idx]
            model = fit_fn(train)
            scores = model.decision_scores(test[:, predictor_idx])
            aucs.append(roc_auc(test[:, label_idx], scores))
    return CrossValidationResult(np.asarray(aucs))


def majority_auc() -> float:
    """AUC of the majority-class baseline (constant scores): always 0.5."""
    return 0.5
