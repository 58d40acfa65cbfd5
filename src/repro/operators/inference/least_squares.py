"""Least-squares inference operators (Sec. 5.5 and 7.6).

Given a measurement matrix ``M`` (possibly implicit) and noisy answers ``y``,
ordinary least squares finds ``x̂ = argmin_x ||M x - y||_2``.  Optional
per-query weights account for measurements taken with different noise scales
(rows are scaled by ``w_i`` before solving, which is equivalent to weighted
least squares with weights ``w_i^2``).

Three solution strategies are provided:

* ``method="direct"`` — dense factorisation of the materialised matrix; cubic
  in the larger dimension, only viable for small problems (used as the
  baseline in the Fig. 5 scalability experiment).
* ``method="lsmr"`` (default) — scipy's iterative LSMR solver driven purely by
  matvec/rmatvec, so it runs on implicit matrices without materialisation.
* ``method="normal"`` — solve the normal equations ``(M.T M) x = M.T y``
  through the artifact :func:`build_normal_equations` prepares once per
  strategy (a tree's two passes, or a factorisation).  It is
  data-independent, so it can be cached and shared across requests via the
  service's :class:`~repro.service.artifact_cache.ArtifactCache` (pass
  ``gram_cache``), after which each solve is one cheap sweep.

Which one a plan's solve takes is the service's policy, and it lives in one
place: :func:`repro.plans.base.infer_least_squares`.

The normal equations come in four kinds.  :func:`build_normal_equations`
picks one from the strategy (reported as the ``gram_kind`` attribute of its
``solve.build_normal_equations`` span): the tree kind when the strategy
declares a tree, else one of the other three from its CSR form
``S = M.sparse()``:

* ``"tree"`` — the strategy declares a tree of sums
  (:meth:`~repro.matrix.base.LinearQueryMatrix.tree_parents`: a
  :class:`~repro.matrix.ranges.HierarchicalQueries` of any size and
  branching, so H2, HB, Greedy-H without a workload and DAWA's stage two),
  unweighted or uniformly weighted: two passes over the tree
  (:mod:`~repro.operators.inference.tree_based`) give the estimate from the
  answers, exactly, in O(m) per solve; ``(M.T M)^-1 rhs`` is the estimate of
  ``[rhs; 0]``.  No CSR form, no Gram, no factorisation.
* ``"orthogonal_rows"`` — ``S S.T = D`` is diagonal, up to the rounding of
  its dot products, with no zero row (Haar wavelets, row-weighted or not,
  disjoint partitions, identity measurements): the estimate comes
  from the answers, ``x = S.T (D^-1 y)``, one sparse product that is also
  the minimum-norm solution when ``m < n``; ``(M.T M)^+ = M.T D^-2 M`` is
  applied directly in O(nnz) for any other right-hand side.  No Gram, no
  factorisation.
* ``"augmented"`` — any other sparse ``S`` (a hierarchy under non-uniform
  row weights or in its sparse or dense representation, partitions stacked
  on an identity): a sparse LU of ``K = [[I, M], [M.T, 0]]``, whose
  ``x``-block of ``K^-1 [0; -rhs]`` solves the normal equations.  ``K``
  keeps the strategy's sparsity where ``M.T M`` fills in.
* ``"dense"`` — ``S`` holds more than :data:`STRATEGY_DENSITY_THRESHOLD` of
  ``n * n`` non-zeros (``Prefix``, dense matrices), or ``K`` is singular:
  the blocked dense Gram plus Cholesky.

Rank-deficient strategies get the minimum-norm (pseudo-inverse) solution
from every kind: a singular ``K`` falls through to the dense kind, which
solves with ``lstsq`` when a Cholesky pivot is (near) zero.

A normal-equations solve gets ``residual_norm`` only from one more product
with ``M``, so its :class:`InferenceResult` computes it on first read, and
its ``solve.least_squares`` span records it only when a tracer records the
span: an untraced request that never reads it never runs the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Protocol

import numpy as np
from scipy import sparse as sp
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import lsmr, splu

from ...matrix import LinearQueryMatrix, ensure_matrix
from ...telemetry.spans import NOOP_SPAN, trace_span
from .tree_based import TreePasses


class SupportsGetOrBuild(Protocol):
    """Anything with an ``ArtifactCache``-style ``get_or_build`` method."""

    def get_or_build(self, key: Hashable, builder): ...


#: The orthogonal-rows and augmented kinds apply when the strategy's CSR form
#: holds at most this fraction of the full ``n * n``; above it, CSR overhead
#: (index storage, slower kernels) loses to the dense Gram and Cholesky.
STRATEGY_DENSITY_THRESHOLD = 0.25


class InferenceResult:
    """Estimated data vector plus solver diagnostics.

    ``residual_norm`` is ``||M x_hat - y||`` in weighted units.  A solver that
    does not get it for free passes a zero-argument callable instead of a
    float: it runs on the first read and its value is kept, so a caller that
    never reads the residual never pays for the product.
    """

    def __init__(
        self, x_hat: np.ndarray, iterations: int, residual_norm: float | Callable[[], float]
    ):
        self.x_hat = x_hat
        self.iterations = iterations
        self._residual = residual_norm

    @property
    def residual_norm(self) -> float:
        if callable(self._residual):
            self._residual = float(self._residual())
        return self._residual


@dataclass
class NormalEquations:
    """Cached normal-equations artifact: ``M.T M`` prepared once to solve.

    It depends only on the (public) measurement strategy and weights, never
    on the noisy answers, so the artifact is data-independent and safe to
    share across requests and tenants through the service's
    ``ArtifactCache``.  ``kind`` says which of the four forms
    :func:`build_normal_equations` chose (see the module docstring):

    * ``"dense"`` — ``gram`` is a dense ndarray factorised with Cholesky
      (``cho``);
    * ``"tree"``, ``"orthogonal_rows"`` and ``"augmented"`` — no Gram is
      formed (``gram`` is ``None``); ``lu`` applies ``(M.T M)^+``, from the
      tree or the sparse strategy itself.  The tree and orthogonal-rows
      kinds also set ``pinv``, which maps answers straight to the estimate
      (``M^+ y = S.T (D^-1 y)`` for orthogonal rows).

    When the Gram is singular (rank-deficient measurements) the dense kind
    keeps the Gram with ``cho=None``, and solves fall back to the
    minimum-norm pseudo-inverse solution.
    """

    gram: np.ndarray | None
    cho: tuple | None
    lu: Callable[[np.ndarray], np.ndarray] | None = None
    kind: str = "dense"
    pinv: Callable[[np.ndarray], np.ndarray] | None = None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(M.T M)^+ rhs`` for a vector or a stack of columns."""
        if self.cho is not None:
            return cho_solve(self.cho, rhs)
        if self.lu is not None:
            return self.lu(np.asarray(rhs))
        return np.linalg.lstsq(self.gram, rhs, rcond=None)[0]

    def estimate(self, queries: LinearQueryMatrix, answers: np.ndarray) -> np.ndarray:
        """The minimum-norm least-squares estimate ``M^+ y`` of ``answers``."""
        if self.pinv is not None:
            return self.pinv(answers)
        return self.solve(queries.rmatvec(answers))


def build_normal_equations(queries: LinearQueryMatrix) -> NormalEquations:
    """Prepare the normal equations of ``queries`` once, in the kind its
    declared tree or its CSR form allows (see the module docstring)."""
    with trace_span(
        "solve.build_normal_equations",
        rows=int(queries.shape[0]),
        cols=int(queries.shape[1]),
    ) as span:
        parents = queries.tree_parents()
        if parents is not None:
            tree = TreePasses(parents, queries.shape[1])
            normal = NormalEquations(None, cho=None, lu=tree.solve, kind="tree", pinv=tree.estimate)
        else:
            # The CSR form is dropped when _factor_strategy returns, before
            # any dense Gram is built, so dense strategies' peak memory stays
            # put.
            normal = _factor_strategy(queries)
            if normal is None:
                normal = _factor_dense(queries.gram_dense())
        span.set_attribute("gram_kind", normal.kind)
        return normal


def _factor_dense(gram: np.ndarray) -> NormalEquations:
    """The ``"dense"`` kind: Cholesky, or the pseudo-inverse on a tiny pivot."""
    try:
        cho = cho_factor(gram)
    except np.linalg.LinAlgError:
        cho = None
    else:
        # A singular Gram whose zero pivot rounding left slightly positive
        # factorises "successfully", but its solve is not the minimum-norm
        # one; treat pivots below the Cholesky backward error as zero.
        pivots = np.diag(cho[0]) ** 2
        if pivots.min() <= gram.shape[0] * np.finfo(np.float64).eps * np.trace(gram):
            cho = None
    return NormalEquations(gram, cho)


def _factor_strategy(queries: LinearQueryMatrix) -> NormalEquations | None:
    """The ``"orthogonal_rows"`` or ``"augmented"`` kind, built from the
    strategy's CSR form; ``None`` when that form is not sparse or the
    augmented system is singular."""
    m, n = queries.shape
    strategy = queries.sparse().tocsr()
    if strategy.nnz > STRATEGY_DENSITY_THRESHOLD * n * n:
        return None
    transpose = strategy.T
    if m <= n:  # more than n non-zero rows cannot be mutually orthogonal
        outer = (strategy @ transpose).tocoo()
        norms = outer.diagonal()
        # An off-diagonal within the rounding bound of an n-term dot product,
        # n·eps·sqrt(d_i d_j), is a zero that row weights rounded away.
        rows, cols = outer.row, outer.col
        bound = n * np.finfo(np.float64).eps * np.sqrt(norms[rows] * norms[cols])
        if np.all(norms > 0) and np.all((rows == cols) | (np.abs(outer.data) <= bound)):
            # M = D^(1/2) Q with orthonormal rows Q, so (M.T M)^+ = Q.T D^-1 Q
            # = M.T D^-2 M and M^+ = M.T D^-1, the pseudo-inverses also when
            # m < n.
            scale = 1.0 / norms**2

            def solve_orthogonal(rhs: np.ndarray) -> np.ndarray:
                coeffs = strategy @ rhs
                coeffs *= scale if coeffs.ndim == 1 else scale[:, None]
                return transpose @ coeffs

            def pseudo_inverse(answers: np.ndarray) -> np.ndarray:
                return transpose @ (answers / norms)

            return NormalEquations(
                None, cho=None, lu=solve_orthogonal, kind="orthogonal_rows", pinv=pseudo_inverse
            )
    system = sp.bmat([[sp.identity(m), strategy], [transpose, None]], format="csc")
    try:
        # The symmetric ordering: splu's default COLAMD fills in 10-19x more.
        factor = splu(system, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:
        return None  # exactly singular: rank-deficient strategy
    pivots = np.abs(factor.U.diagonal())
    if pivots.min() <= pivots.max() * np.finfo(np.float64).eps * (m + n):
        # Rank-deficient too: rounding (with non-uniform row weights, say)
        # left a tiny pivot where exact arithmetic has a zero.
        return None

    def solve_augmented(rhs: np.ndarray) -> np.ndarray:
        # K [r; x] = [0; -rhs] gives r = -M x and M.T M x = rhs.
        block = np.zeros((m + n,) + rhs.shape[1:])
        block[m:] = -rhs
        return factor.solve(block)[m:]

    return NormalEquations(None, cho=None, lu=solve_augmented, kind="augmented")


def _apply_weights(
    queries: LinearQueryMatrix, answers: np.ndarray, weights: np.ndarray | None
) -> tuple[LinearQueryMatrix, np.ndarray, float]:
    """Fold per-query weights into the system.

    Returns ``(queries, answers, uniform_scale)``.  Non-uniform weights are
    folded in as a diagonal row scaling (``uniform_scale`` is 1.0).  Exactly
    uniform weights leave the system untouched and return the common weight as
    ``uniform_scale`` instead: the minimiser is invariant under a uniform row
    scaling, so solvers can keep sharing strategy-keyed Gram artifacts across
    noise scales — but they must multiply reported residual norms by
    ``uniform_scale`` so the units match the non-uniform case.
    """
    if weights is None:
        return queries, np.asarray(answers, dtype=np.float64), 1.0
    weights = np.asarray(weights, dtype=np.float64)
    answers = np.asarray(answers, dtype=np.float64)
    if weights.shape != (queries.shape[0],):
        raise ValueError("weights must have one entry per query")
    if not np.any(weights):
        # All-zero weights erase every equation; a silent unweighted solve
        # (the old shortcut's behaviour) would claim a residual it never saw.
        raise ValueError("weights must not be all zero")
    if np.allclose(weights, weights[0]):
        # abs(): the residual scale is a norm factor, so a (pathological)
        # uniform negative weight must not flip residual_norm's sign.
        return queries, answers, abs(float(weights[0]))
    from ...matrix.dense import SparseMatrix

    diag = SparseMatrix(sp.diags(weights))
    from ...matrix.combinators import Product

    return Product(diag, queries), weights * answers, 1.0


def least_squares(
    queries: LinearQueryMatrix,
    answers: np.ndarray,
    weights: np.ndarray | None = None,
    method: str = "lsmr",
    max_iterations: int | None = None,
    tolerance: float = 1e-8,
    gram_cache: SupportsGetOrBuild | None = None,
) -> InferenceResult:
    """Ordinary least-squares estimate of the data vector.

    Parameters
    ----------
    queries:
        The measurement matrix ``M`` (any :class:`LinearQueryMatrix`).
    answers:
        Noisy answers ``y`` with one entry per row of ``M``.
    weights:
        Optional per-query weights (inverse noise scales).
    method:
        ``"lsmr"`` (iterative, works on implicit matrices), ``"direct"``
        (dense factorisation) or ``"normal"`` (the normal equations, in the
        kind :func:`build_normal_equations` picks); any other value raises
        ``ValueError``.
    max_iterations:
        Iteration cap for the lsmr solver.  ``None`` (the only sentinel) means
        "use the default of ``max(2n, 100)``"; an explicit ``0`` is honoured
        and returns the zero vector after no iterations.
    gram_cache:
        Optional cache (anything with an ``ArtifactCache``-style
        ``get_or_build``) for the ``method="normal"`` factorisation.  The
        entry is keyed by the *weighted* matrix's canonical
        :meth:`~repro.matrix.base.LinearQueryMatrix.strategy_key` (the
        factorisation is data-independent but depends on the weights), so
        equal strategies share one factorisation and distinct ones never
        share an entry.
    """
    queries = ensure_matrix(queries)
    answers = np.asarray(answers, dtype=np.float64)
    if answers.shape != (queries.shape[0],):
        raise ValueError(
            f"answers of shape {answers.shape} do not match {queries.shape[0]} queries"
        )
    # ``scale`` is a uniform row weight left out of the solve (the minimiser
    # is invariant, and keeping the system unscaled lets equal strategies
    # share one cached Gram across noise scales); residual norms are
    # multiplied back so they are always reported in weighted units.
    queries, answers, scale = _apply_weights(queries, answers, weights)

    with trace_span(
        "solve.least_squares",
        method=method,
        rows=int(queries.shape[0]),
        cols=int(queries.shape[1]),
    ) as span:
        if method == "direct":
            dense = queries.dense()
            x_hat, residuals, _, _ = np.linalg.lstsq(dense, answers, rcond=None)
            residual = scale * float(np.linalg.norm(dense @ x_hat - answers))
            span.set_attributes(iterations=1, residual_norm=residual)
            return InferenceResult(x_hat, iterations=1, residual_norm=residual)
        if method == "normal":
            if gram_cache is not None:
                # The builder only runs on a miss, so an empty flag list after
                # get_or_build means the factorisation came from the cache —
                # works for any SupportsGetOrBuild, not just ArtifactCache.
                built: list[bool] = []

                def _build():
                    built.append(True)
                    return build_normal_equations(queries)

                normal = gram_cache.get_or_build(
                    ("least_squares_gram", queries.strategy_key()), _build
                )
                span.set_attribute("gram_cache_hit", not built)
            else:
                normal = build_normal_equations(queries)
            x_hat = np.asarray(normal.estimate(queries, answers))
            # The residual costs one more product with M: computed on first
            # read, which only a recording span does at once.
            estimate = InferenceResult(
                x_hat,
                iterations=1,
                residual_norm=lambda: scale * np.linalg.norm(queries.matvec(x_hat) - answers),
            )
            if span is not NOOP_SPAN:
                span.set_attributes(iterations=1, residual_norm=estimate.residual_norm)
            return estimate
        if method != "lsmr":
            raise ValueError(f"unknown least-squares method {method!r}")

        operator = queries.as_linear_operator()
        if max_iterations is None:
            max_iterations = max(2 * queries.shape[1], 100)
        solution = lsmr(operator, answers, atol=tolerance, btol=tolerance, maxiter=max_iterations)
        x_hat, istop, itn, normr = solution[0], solution[1], solution[2], solution[3]
        span.set_attributes(iterations=int(itn), residual_norm=scale * float(normr))
        return InferenceResult(
            np.asarray(x_hat), iterations=int(itn), residual_norm=scale * float(normr)
        )
