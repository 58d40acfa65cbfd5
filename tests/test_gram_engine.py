"""Tests of the normal-equations solve engine and strategy-key protocol.

Covers ``gram_dense``/``sparse``/``strategy_key``, the minimum-norm
normal-equations solve (plain and row-weighted), the kind rule and the
expected workload error across the full matrix hierarchy, the three kinds of
the normal-equations inference artifact (orthogonal rows, augmented system,
dense Gram) and the rule that picks them from the strategy's CSR form, the
paper's predictable-error claim on every kind, and the scheduler-level Gram
sharing that reuses one factorisation across tenants.  Also pins weighted
residual-norm units, the all-zero-weights guard, the structural (dense-free)
``sparse()`` builders, and the memoised hierarchy intervals.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse as sp

from repro.accounting import ApproxDPAccountant
from repro.analysis import expected_workload_error
from repro.dataset import Attribute, Relation, Schema
from repro.matrix import (
    DenseMatrix,
    ExpansionMatrix,
    HaarWavelet,
    HierarchicalQueries,
    Identity,
    Kronecker,
    LinearQueryMatrix,
    Ones,
    Prefix,
    Product,
    RangeQueries,
    RangeQueries2D,
    ReductionMatrix,
    SparseMatrix,
    Suffix,
    Total,
    VStack,
    Weighted,
    all_kway_marginals,
    hierarchical_intervals,
    optimal_branching_factor,
)
from repro.operators.inference import (
    build_normal_equations,
    least_squares,
)
from repro.operators.inference.least_squares import NormalEquations, _factor_dense
from repro.plans.base import infer_least_squares
from repro.private import ProtectedKernel
from repro.service import ArtifactCache
from repro.telemetry import Tracer, activate


def _rng(seed=0):
    return np.random.default_rng(seed)


def _reduction(n=12, groups_of=3, seed=3):
    groups = _rng(seed).integers(0, n // groups_of, size=n)
    groups[: n // groups_of] = np.arange(n // groups_of)  # every group non-empty
    return ReductionMatrix(groups)


def _catalog() -> list[tuple[str, LinearQueryMatrix]]:
    """One instance of every matrix class, plus nested compositions."""
    rng = _rng(42)
    red = _reduction()
    expansion = red.pseudo_inverse()
    sparse_mat = SparseMatrix(sp.random(9, 6, density=0.4, random_state=7, format="csr"))
    ranges = RangeQueries(8, [(0, 3), (2, 7), (5, 5), (0, 7)])
    return [
        ("identity", Identity(7)),
        ("ones", Ones(3, 5)),
        ("total", Total(6)),
        ("prefix", Prefix(9)),
        ("suffix", Suffix(9)),
        ("haar", HaarWavelet(8)),
        ("dense", DenseMatrix(rng.normal(size=(6, 4)))),
        ("sparse", sparse_mat),
        ("reduction", red),
        ("expansion", expansion),
        ("squared_expansion", expansion.square()),
        ("transpose", Prefix(6).T),
        ("weighted", Weighted(Prefix(5), -1.5)),
        ("vstack", VStack([Identity(8), ranges])),
        ("product", Product(sparse_mat, DenseMatrix(rng.normal(size=(6, 5))))),
        ("kronecker", Kronecker([Prefix(3), Identity(2), Total(2)])),
        ("range_queries", ranges),
        ("hierarchical", HierarchicalQueries(8)),
        ("ranges_2d", RangeQueries2D(4, 4, [(0, 1, 0, 3), (2, 3, 1, 2), (0, 3, 0, 0)])),
        ("marginals", all_kway_marginals((2, 3, 2), 2)),
        (
            "nested",
            VStack(
                [
                    Weighted(Kronecker([Identity(3), Total(4)]), 2.0),
                    Product(Ones(5, 3), ReductionMatrix([0, 0, 1, 1, 1, 2, 2, 0, 1, 2, 1, 0])),
                ]
            ),
        ),
        ("expansion_product", Product(ranges, ExpansionMatrix(_reduction(8, 2, 5)))),
    ]


@pytest.mark.parametrize("name,matrix", _catalog(), ids=[n for n, _ in _catalog()])
class TestGramProtocol:
    def test_gram_dense_matches_explicit(self, name, matrix):
        dense = matrix.dense()
        np.testing.assert_allclose(matrix.gram_dense(), dense.T @ dense, atol=1e-9)

    def test_normal_equations_solve_like_lstsq(self, name, matrix):
        # Every kind, rank-deficient classes included, must give the
        # minimum-norm least-squares solution of M x = b.
        dense = matrix.dense()
        normal = build_normal_equations(matrix)
        assert normal.kind in ("orthogonal_rows", "augmented", "dense")
        rng = _rng(19)
        for answers in (rng.normal(size=dense.shape[0]), rng.normal(size=(dense.shape[0], 3))):
            expected = np.linalg.lstsq(dense, answers, rcond=None)[0]
            got = normal.solve(dense.T @ answers)
            assert got.shape == expected.shape
            np.testing.assert_allclose(got, expected, rtol=1e-7, atol=1e-9)

    def test_kind_follows_the_csr_rule(self, name, matrix):
        # The rule, restated from the dense matrix: a dense CSR form takes
        # the dense kind; a sparse one with mutually orthogonal non-zero rows
        # the closed form; any other sparse one the augmented system, unless
        # that system is singular (rank-deficient columns).
        dense = matrix.dense()
        n = dense.shape[1]
        outer = dense @ dense.T
        norms = np.diag(outer)
        if np.count_nonzero(dense) > n * n / 4:
            expected = "dense"
        elif np.all(norms > 0) and not np.any(outer - np.diag(norms)):
            expected = "orthogonal_rows"
        elif np.linalg.matrix_rank(dense) < n:
            expected = "dense"
        else:
            expected = "augmented"
        assert build_normal_equations(matrix).kind == expected

    def test_weighted_solve_like_lstsq(self, name, matrix):
        # Non-uniform row weights factorise diag(w) M, rank-deficient classes
        # included: the estimate is the minimum-norm weighted solution and the
        # residual is reported in weighted units.
        dense = matrix.dense()
        rng = _rng(27)
        answers = rng.normal(size=dense.shape[0])
        weights = rng.uniform(0.5, 2.0, size=dense.shape[0])
        expected = np.linalg.lstsq(weights[:, None] * dense, weights * answers, rcond=None)[0]
        result = least_squares(matrix, answers, weights=weights, method="normal")
        np.testing.assert_allclose(result.x_hat, expected, rtol=1e-7, atol=1e-9)
        residual = np.linalg.norm(weights * (dense @ expected - answers))
        assert result.residual_norm == pytest.approx(residual, rel=1e-7, abs=1e-9)

    def test_expected_workload_error_matches_pinv(self, name, matrix):
        # Var · tr(W (MᵀM)⁺ Wᵀ) with Laplace's Var = 2·(||M||₁/ε)², against the
        # pseudo-inverse of the explicit Gram.
        dense = matrix.dense()
        workload = _rng(23).normal(size=(5, dense.shape[1]))
        epsilon = 0.5
        variance = 2.0 * (np.abs(dense).sum(axis=0).max() / epsilon) ** 2
        expected = variance * np.trace(workload @ np.linalg.pinv(dense.T @ dense) @ workload.T)
        got = expected_workload_error(DenseMatrix(workload), matrix, epsilon)
        assert got == pytest.approx(expected, rel=1e-7)

    def test_strategy_key_is_hashable_and_stable(self, name, matrix):
        key = matrix.strategy_key()
        hash(key)
        assert key == matrix.strategy_key()

    def test_sparse_matches_dense(self, name, matrix):
        # The structural sparse() builders must agree with dense().
        np.testing.assert_allclose(matrix.sparse().toarray(), matrix.dense(), atol=1e-12)


class TestStrategyKeys:
    def test_equal_constructions_share_keys(self):
        assert HierarchicalQueries(32).strategy_key() == HierarchicalQueries(32).strategy_key()
        assert Identity(5).strategy_key() == Identity(5).strategy_key()
        groups = [0, 1, 1, 2, 0, 2]
        assert (
            ReductionMatrix(groups).strategy_key() == ReductionMatrix(groups).strategy_key()
        )
        intervals = [(0, 3), (1, 2)]
        assert (
            RangeQueries(6, intervals).strategy_key()
            == RangeQueries(6, intervals).strategy_key()
        )

    def test_different_constructions_differ(self):
        assert Identity(5).strategy_key() != Identity(6).strategy_key()
        assert HierarchicalQueries(32).strategy_key() != HierarchicalQueries(32, 4).strategy_key()
        assert (
            ReductionMatrix([0, 0, 1]).strategy_key()
            != ReductionMatrix([0, 1, 1]).strategy_key()
        )
        assert (
            Weighted(Prefix(4), 2.0).strategy_key() != Weighted(Prefix(4), 3.0).strategy_key()
        )

    def test_composite_keys_recurse(self):
        a = VStack([Identity(4), Prefix(4)]).strategy_key()
        b = VStack([Identity(4), Prefix(4)]).strategy_key()
        c = VStack([Identity(4), Suffix(4)]).strategy_key()
        assert a == b != c

    def test_raw_fallback_digests_content(self):
        # A class with no override digests its materialised content.
        class Custom(LinearQueryMatrix):
            def __init__(self, array):
                self.array = np.asarray(array, dtype=np.float64)
                self.shape = self.array.shape

            def _matmat(self, B):
                return self.array @ B

            def _rmatmat(self, B):
                return self.array.T @ B

        one = Custom([[1.0, 2.0], [0.0, 1.0]])
        same = Custom([[1.0, 2.0], [0.0, 1.0]])
        other = Custom([[1.0, 2.0], [0.0, 3.0]])
        assert one.strategy_key() == same.strategy_key()
        assert one.strategy_key() != other.strategy_key()


class TestNormalEquationsSparse:
    def test_singular_sparse_gram_falls_back_to_pseudo_inverse(self):
        # A measurement matrix with an unmeasured cell: the Gram has a zero
        # row/column, so the augmented system is singular, the dense kind's
        # Cholesky fails, and solves fall back to the minimum-norm
        # least-squares solution.
        mat = sp.diags(np.array([1.0, 2.0, 0.0, 1.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
        strategy = SparseMatrix(mat.tocsr())
        ne = build_normal_equations(strategy)
        assert ne.kind == "dense" and ne.lu is None and ne.cho is None
        answers = np.ones(10)
        x_hat = ne.solve(strategy.rmatvec(answers))
        np.testing.assert_allclose(ne.gram @ x_hat, strategy.rmatvec(answers), atol=1e-9)
        assert x_hat[2] == pytest.approx(0.0, abs=1e-12)

    def test_least_squares_normal_on_sparse_gram_strategy(self):
        strategy = VStack([_reduction(64, 8, 4), Identity(64)])
        rng = _rng(21)
        x_true = rng.normal(size=64)
        answers = strategy.matvec(x_true)
        result = least_squares(strategy, answers, method="normal")
        np.testing.assert_allclose(result.x_hat, x_true, atol=1e-8)

    def test_normal_equations_dataclass_is_backward_compatible(self):
        ne = NormalEquations(np.eye(3), cho=None)
        np.testing.assert_allclose(ne.solve(np.ones(3)), np.ones(3))


class TestWeightedResidualUnits:
    def test_uniform_weights_scale_residual_consistently(self):
        queries = HierarchicalQueries(16)
        rng = _rng(5)
        answers = queries.matvec(rng.normal(size=16)) + rng.normal(size=queries.shape[0])
        base = least_squares(queries, answers, method="normal")
        doubled = least_squares(
            queries, answers, weights=np.full(queries.shape[0], 2.0), method="normal"
        )
        # Same minimiser, but the residual is reported in weighted units.
        np.testing.assert_allclose(doubled.x_hat, base.x_hat, atol=1e-8)
        assert doubled.residual_norm == pytest.approx(2.0 * base.residual_norm, rel=1e-8)

    def test_uniform_and_nearly_uniform_weights_agree(self):
        # Regression: before the fix, exactly-uniform weights skipped the
        # scaling so residual_norm jumped by the weight factor relative to an
        # epsilon-perturbed (non-uniform) weight vector.
        queries = Prefix(12)
        rng = _rng(6)
        answers = queries.matvec(rng.normal(size=12)) + rng.normal(size=12)
        uniform = np.full(12, 3.0)
        nearly = uniform.copy()
        nearly[0] *= 1.0 + 1e-12
        r_uniform = least_squares(queries, answers, weights=uniform, method="normal")
        r_nearly = least_squares(queries, answers, weights=nearly, method="normal")
        assert r_uniform.residual_norm == pytest.approx(r_nearly.residual_norm, rel=1e-6)

    def test_weighted_stack_units_match_across_scale_splits(self):
        queries = HierarchicalQueries(8)
        rng = _rng(7)
        rows = queries.shape[0]
        y1 = queries.matvec(rng.normal(size=8)) + rng.normal(size=rows)
        y2 = queries.matvec(rng.normal(size=8)) + rng.normal(size=rows)
        stacked, answers = VStack([queries, queries]), np.concatenate([y1, y2])
        equal = least_squares(
            stacked, answers, weights=np.full(2 * rows, 1.0 / 2.0), method="normal"
        )
        perturbed_weights = np.concatenate(
            [np.full(rows, 1.0 / 2.0), np.full(rows, 1.0 / (2.0 * (1.0 + 1e-12)))]
        )
        perturbed = least_squares(stacked, answers, weights=perturbed_weights, method="normal")
        assert equal.residual_norm == pytest.approx(perturbed.residual_norm, rel=1e-6)

    def test_all_zero_weights_rejected(self):
        queries = Prefix(4)
        answers = np.ones(4)
        with pytest.raises(ValueError, match="all zero"):
            least_squares(queries, answers, weights=np.zeros(4))

    def test_uniform_negative_weights_keep_residual_nonnegative(self):
        queries = Prefix(6)
        rng = _rng(13)
        answers = queries.matvec(rng.normal(size=6)) + rng.normal(size=6)
        positive = least_squares(queries, answers, weights=np.full(6, 2.0), method="normal")
        negative = least_squares(queries, answers, weights=np.full(6, -2.0), method="normal")
        assert negative.residual_norm >= 0.0
        assert negative.residual_norm == pytest.approx(positive.residual_norm, rel=1e-9)
        np.testing.assert_allclose(negative.x_hat, positive.x_hat, atol=1e-9)

    def test_nonuniform_weights_keep_the_sparse_strategy_kind(self):
        # Row weighting is a diagonal left factor: the strategy's sparsity
        # pattern is unchanged, so the weighted system must still factorise
        # from its CSR form.
        strategy = VStack([_reduction(64, 8, 6), Identity(64)])
        rng = _rng(14)
        weights = rng.uniform(0.5, 2.0, size=strategy.shape[0])
        weighted = Product(SparseMatrix(sp.diags(weights)), strategy)
        assert weighted.sparse().nnz == strategy.sparse().nnz
        assert build_normal_equations(weighted).kind == "augmented"
        x_true = rng.normal(size=64)
        answers = strategy.matvec(x_true)
        result = least_squares(strategy, answers, weights=weights, method="normal")
        np.testing.assert_allclose(result.x_hat, x_true, atol=1e-8)

    def test_lsmr_weighted_matches_normal_units(self):
        queries = HierarchicalQueries(8)
        rng = _rng(8)
        answers = queries.matvec(rng.normal(size=8)) + rng.normal(size=queries.shape[0])
        weights = np.full(queries.shape[0], 4.0)
        lsmr = least_squares(queries, answers, weights=weights, method="lsmr")
        normal = least_squares(queries, answers, weights=weights, method="normal")
        assert lsmr.residual_norm == pytest.approx(normal.residual_norm, rel=1e-5)


class TestAutoGramKeys:
    def test_gram_cache_without_explicit_key_shares_by_strategy(self):
        cache = ArtifactCache()
        rng = _rng(9)
        for trial in range(3):
            queries = HierarchicalQueries(32)  # rebuilt every time, same key
            answers = queries.matvec(rng.normal(size=32))
            least_squares(queries, answers, method="normal", gram_cache=cache)
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 2

    def test_nonuniform_weights_change_the_derived_key(self):
        cache = ArtifactCache()
        queries = Prefix(8)
        answers = np.arange(8.0)
        least_squares(queries, answers, method="normal", gram_cache=cache)
        weights = np.ones(8)
        weights[0] = 3.0
        least_squares(queries, answers, weights=weights, method="normal", gram_cache=cache)
        # Non-uniform weights produce a different weighted strategy → two entries.
        assert cache.stats["misses"] == 2

    def test_uniform_scales_share_one_gram_artifact(self):
        # The minimiser is invariant under a uniform row scaling, so requests
        # at different noise scales (uniform weights) must reuse one cached
        # factorisation instead of building an n x n artifact per scale.
        cache = ArtifactCache()
        queries = Prefix(8)
        answers = np.arange(8.0)
        for scale in (1.0, 2.0, 5.0):
            result = least_squares(
                queries,
                answers,
                weights=np.full(8, scale),
                method="normal",
                gram_cache=cache,
            )
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 2

    def test_infer_least_squares_solves_normal_equations_only_with_a_cache(self):
        # The one solver policy: a shared cache and m >= n up to n = 4096
        # take the cached normal equations, anything else LSMR (which never
        # touches the cache).
        def solve(queries, cache):
            answers = np.arange(queries.shape[0], dtype=np.float64)
            estimate = infer_least_squares(queries, answers, gram_cache=cache)
            return estimate, cache is not None and (
                ("least_squares_gram", queries.strategy_key()) in cache
            )

        square = Prefix(16)
        without, _ = solve(square, None)
        assert without.iterations > 1  # LSMR path
        cache = ArtifactCache()
        with_cache, normal = solve(square, cache)
        assert normal and with_cache.iterations == 1 and len(cache) == 1
        np.testing.assert_allclose(with_cache.x_hat, without.x_hat, atol=1e-6)
        assert solve(VStack([HierarchicalQueries(32), HierarchicalQueries(32)]), cache)[1]
        # Wide (m < n) and past the domain cap: LSMR even with the cache.
        assert not solve(DenseMatrix(np.ones((3, 8))), cache)[1]
        assert not solve(Identity(4097), cache)[1]


# ----------------------------------------------------------------------------
# The three normal-equations kinds and the rule that picks them.
# ----------------------------------------------------------------------------
KIND_CASES = [
    ("haar", lambda: HaarWavelet(64), "orthogonal_rows"),
    ("h2", lambda: HierarchicalQueries(64, 2), "augmented"),
    ("hb", lambda: HierarchicalQueries(64, 16), "augmented"),
    # n=1000 splits unevenly: children of one node differ in size.
    ("h2_uneven", lambda: HierarchicalQueries(1000, 2), "augmented"),
    ("hb_uneven", lambda: HierarchicalQueries(1000, 16), "augmented"),
    # Square and sparse, but overlapping rows: not orthogonal.
    (
        "sliding_windows",
        lambda: RangeQueries(64, [(i, min(i + 3, 63)) for i in range(64)]),
        "augmented",
    ),
    ("prefix", lambda: Prefix(64), "dense"),
    ("dense", lambda: DenseMatrix(_rng(3).normal(size=(96, 64))), "dense"),
    # Disjoint groups stacked on an identity: m > n, so not orthogonal.
    ("partition", lambda: VStack([_reduction(64, 8), Identity(64)]), "augmented"),
    # Disjoint non-empty groups: mutually orthogonal rows.
    ("kron_partition", lambda: Kronecker([Identity(4), _reduction(16, 4, 9)]), "orthogonal_rows"),
    ("reduction", lambda: _reduction(64, 8, 5), "orthogonal_rows"),
    # One row: m < n, so the estimate is the minimum-norm solution.
    ("total", lambda: Total(12), "orthogonal_rows"),
]


def _relative_gap(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def _unsplit_pair(n: int) -> RangeQueries:
    """A 0/1 hierarchy that never separates cells 0 and 1: rank n - 1."""
    return RangeQueries(n, hierarchical_intervals(n, 2) + [(i, i) for i in range(2, n)])


@pytest.mark.parametrize("name,build,kind", KIND_CASES, ids=[c[0] for c in KIND_CASES])
class TestNormalEquationKinds:
    def test_auto_picks_the_kind_and_traces_it(self, name, build, kind):
        tracer = Tracer()
        with activate(tracer):
            normal = build_normal_equations(build())
        assert normal.kind == kind
        (span,) = [s for s in tracer.drain() if s.name == "solve.build_normal_equations"]
        assert span.attributes["gram_kind"] == kind
        # Only the Gram kinds hold a Gram.
        assert (normal.gram is None) == (kind in ("orthogonal_rows", "augmented"))

    def test_solutions_match_the_dense_kind(self, name, build, kind):
        strategy = build()
        rng = _rng(17)
        normal = build_normal_equations(strategy)
        dense = _factor_dense(strategy.gram_dense())
        vector = strategy.rmatvec(rng.normal(size=strategy.shape[0]))
        columns = strategy.rmatmat(rng.normal(size=(strategy.shape[0], 3)))
        assert normal.solve(vector).shape == vector.shape
        assert normal.solve(columns).shape == columns.shape
        assert _relative_gap(normal.solve(vector), dense.solve(vector)) <= 1e-9
        assert _relative_gap(normal.solve(columns), dense.solve(columns)) <= 1e-9

    @pytest.mark.parametrize("weighting", ["none", "uniform", "nonuniform"])
    def test_orthogonal_rows_estimate_from_the_answers(
        self, monkeypatch, name, build, kind, weighting
    ):
        # x = S.T (D^-1 y) needs no M.T y: only the other kinds form it, and
        # every kind agrees with solve(M.T y) on the weighted system.  Row
        # weights round the cancellations between Haar rows to off-diagonals
        # of S S.T within the rounding bound of their dot products, so the
        # weighted Haar system keeps the orthogonal-rows kind.
        strategy = build()
        m = strategy.shape[0]
        rng = _rng(19)
        answers = rng.normal(size=m)
        weights = {
            "none": None,
            "uniform": np.full(m, 2.5),
            "nonuniform": rng.uniform(0.5, 2.0, size=m),
        }[weighting]
        system, rhs = strategy, answers
        if weighting == "nonuniform":
            system = Product(SparseMatrix(sp.diags(weights)), strategy)
            rhs = weights * answers
        normal = build_normal_equations(system)
        assert normal.kind == kind
        expected = normal.solve(system.rmatvec(rhs))
        calls = []
        rmatvec = LinearQueryMatrix.rmatvec

        def counting(matrix, v):
            calls.append(type(matrix).__name__)
            return rmatvec(matrix, v)

        monkeypatch.setattr(LinearQueryMatrix, "rmatvec", counting)
        got = least_squares(strategy, answers, weights=weights, method="normal").x_hat
        assert (calls == []) == (normal.kind == "orthogonal_rows")
        assert _relative_gap(got, expected) <= 1e-12


class TestNormalEquationKindsEdges:
    @pytest.mark.parametrize(
        "strategy",
        [HaarWavelet(128), HierarchicalQueries(128, optimal_branching_factor(128)),
         HierarchicalQueries(128, 2)],
        ids=["privelet", "hb", "h2"],
    )
    def test_expected_workload_error_matches_the_dense_kind(self, monkeypatch, strategy):
        from repro.analysis import error as error_module

        pairs = _rng(23).integers(0, 128, size=(40, 2))
        workload = RangeQueries(128, [(min(a, b), max(a, b)) for a, b in pairs])
        fast = error_module.expected_workload_error(workload, strategy)
        monkeypatch.setattr(
            error_module,
            "build_normal_equations",
            lambda matrix: _factor_dense(matrix.gram_dense()),
        )
        assert fast == pytest.approx(
            error_module.expected_workload_error(workload, strategy), rel=1e-9
        )

    def test_rank_deficient_hierarchy_returns_min_norm_solution(self):
        strategy = _unsplit_pair(16)
        dense = strategy.dense()
        assert np.linalg.matrix_rank(dense) == 15
        # A singular augmented system falls through to the dense kind.
        assert build_normal_equations(strategy).kind == "dense"
        rng = _rng(29)
        answers = rng.normal(size=strategy.shape[0])
        expected = np.linalg.lstsq(dense, answers, rcond=None)[0]
        got = least_squares(strategy, answers, method="normal").x_hat
        np.testing.assert_allclose(got, expected, atol=1e-9)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: _unsplit_pair(32),
            # A sparse Gram: cells 0 and 1 are only ever measured together.
            lambda: VStack([ReductionMatrix([0, 0, *range(1, 31)])] * 2),
        ],
        ids=["hierarchy", "stacked_partitions"],
    )
    def test_rank_deficient_hierarchy_with_nonuniform_weights(self, build):
        # Row weights make a zero pivot round to a tiny non-zero in some
        # draws (draws 1, 5, 11, 14, 17 and 23 of the hierarchy on x86-64
        # scipy 1.17, where splu then does not raise); every draw must still
        # give the minimum-norm solution.
        strategy = build()
        assert np.linalg.matrix_rank(strategy.dense()) == 31
        dense = strategy.dense()
        answers = _rng(30).normal(size=strategy.shape[0])
        rng = _rng(31)
        for _ in range(25):
            weights = rng.uniform(0.1, 3.0, size=strategy.shape[0])
            expected = np.linalg.lstsq(weights[:, None] * dense, weights * answers, rcond=None)[0]
            got = least_squares(strategy, answers, weights=weights, method="normal").x_hat
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_orthogonal_rows_with_fewer_rows_than_columns(self):
        # Total(n) is one non-zero row: its pseudo-inverse solve is the
        # closed form, not a factorisation.
        strategy = Total(12)
        normal = build_normal_equations(strategy)
        assert normal.kind == "orthogonal_rows"
        rhs = strategy.rmatvec(np.array([6.0]))
        np.testing.assert_allclose(normal.solve(rhs), np.full(12, 0.5), atol=1e-12)


class TestTransposeBuiltOnce:
    """Each sparse transpose is built once and reused, with the same results."""

    @staticmethod
    def _count_transposes(monkeypatch) -> list:
        calls = []
        original = sp.csr_matrix.transpose

        def counting(self, *args, **kwargs):
            calls.append(self.shape)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(sp.csr_matrix, "transpose", counting)
        return calls

    def test_sparse_matrix_transposed_products(self, monkeypatch):
        rng = _rng(41)
        csr = sp.random(30, 20, density=0.2, random_state=5, format="csr")
        vectors = [rng.normal(size=30) for _ in range(3)]
        columns = rng.normal(size=(30, 4))
        expected = [csr.T @ v for v in vectors] + [csr.T @ columns]
        matrix = SparseMatrix(csr)
        calls = self._count_transposes(monkeypatch)
        got = [matrix.rmatvec(v) for v in vectors] + [matrix.rmatmat(columns)]
        assert len(calls) == 1
        for result, want in zip(got, expected):
            assert np.array_equal(result, want)

    def test_orthogonal_rows_factor_and_solves(self, monkeypatch):
        strategy = _reduction(40, 4, 11)
        csr = strategy.sparse()
        rng = _rng(43)
        rhs = [rng.normal(size=40), rng.normal(size=(40, 3))]
        scale = 1.0 / (csr @ csr.T).diagonal() ** 2
        expected = [
            csr.T @ ((csr @ rhs[0]) * scale),
            csr.T @ ((csr @ rhs[1]) * scale[:, None]),
        ]
        calls = self._count_transposes(monkeypatch)
        normal = build_normal_equations(strategy)
        got = [normal.solve(b) for b in rhs]
        assert normal.kind == "orthogonal_rows"
        assert len(calls) == 1
        for result, want in zip(got, expected):
            assert np.array_equal(result, want)


PREDICTABLE_ERROR_CASES = [
    ("identity", lambda n: Identity(n), "orthogonal_rows"),
    ("haar", lambda n: HaarWavelet(n), "orthogonal_rows"),
    ("h2", lambda n: HierarchicalQueries(n, 2), "augmented"),
    ("hb", lambda n: HierarchicalQueries(n, optimal_branching_factor(n)), "augmented"),
    ("prefix", lambda n: Prefix(n), "dense"),
]


class TestPredictableError:
    """The paper's central claim: a plan's error is predictable.  Realised
    workload error of kernel measurements plus least squares must match
    ``expected_workload_error`` on every normal-equations kind."""

    @pytest.mark.parametrize("noise", ["laplace", "gaussian"])
    @pytest.mark.parametrize(
        "name,build,kind", PREDICTABLE_ERROR_CASES, ids=[c[0] for c in PREDICTABLE_ERROR_CASES]
    )
    def test_mean_squared_error_matches_expected(self, name, build, kind, noise):
        n, trials, delta = 256, 200, 1e-6
        strategy = build(n)
        assert build_normal_equations(strategy).kind == kind
        rng = _rng(41)
        pairs = rng.integers(0, n, size=(128, 2))
        workload = RangeQueries(n, [(min(a, b), max(a, b)) for a, b in pairs])
        histogram = rng.integers(0, 50, size=n)
        relation = Relation.from_histogram(Schema.build([Attribute("x", n)]), histogram)
        if noise == "laplace":
            kernel = ProtectedKernel(relation, epsilon_total=trials + 1, seed=43)
            measure = kernel.measure_vector_laplace
        else:
            accountant = ApproxDPAccountant(trials + 1, delta_total=0.01, measurement_delta=delta)
            kernel = ProtectedKernel(relation, seed=43, accountant=accountant)
            measure = kernel.measure_vector_gaussian
        vector = kernel.transform_vectorize("root")
        truth = workload.matvec(histogram.astype(np.float64))
        cache = ArtifactCache()
        errors = np.empty(trials)
        for t in range(trials):
            answers = measure(vector, strategy, 1.0)
            x_hat = least_squares(strategy, answers, method="normal", gram_cache=cache).x_hat
            errors[t] = np.sum((workload.matvec(x_hat) - truth) ** 2)
        expected = expected_workload_error(workload, strategy, 1.0, noise=noise, delta=delta)
        standard_error = errors.std(ddof=1) / np.sqrt(trials)
        assert abs(errors.mean() - expected) <= 4.0 * standard_error


class TestSharedFactorAcrossThreads:
    @pytest.mark.parametrize(
        "strategy", [HierarchicalQueries(256, 2), HaarWavelet(256)], ids=["augmented", "orthogonal"]
    )
    def test_concurrent_solves_match_serial_solves(self, strategy):
        # The service's thread backend solves many requests against one
        # cached factor at once; every solve must equal its serial result.
        normal = build_normal_equations(strategy)
        rng = _rng(37)
        rhs = [strategy.rmatvec(rng.normal(size=strategy.shape[0])) for _ in range(16)]
        expected = [normal.solve(r) for r in rhs]
        mismatches, done = [], []

        def worker(offset: int) -> None:
            for k in range(48):
                j = (k + offset) % len(rhs)
                if not np.array_equal(normal.solve(rhs[j]), expected[j]):
                    mismatches.append(j)
            done.append(offset)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(done) == 8 and not mismatches


class TestStructuralSparse:
    @pytest.mark.parametrize("n", [1 << k for k in range(13)])
    def test_haar_sparse_equals_dense(self, n):
        haar = HaarWavelet(n)
        mat = haar.sparse()
        assert mat.has_canonical_format and mat.nnz == n * n.bit_length()
        # Column blocks keep the comparison's memory small at n=4096.
        for lo in range(0, n, 512):
            hi = min(lo + 512, n)
            basis = np.zeros((n, hi - lo))
            basis[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
            assert np.array_equal(mat[:, lo:hi].toarray(), haar.matmat(basis))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40))
    def test_range_queries_sparse_equals_dense(self, data, n):
        ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs = data.draw(st.lists(ends, min_size=1, max_size=12))
        intervals = [(min(a, b), max(a, b)) for a, b in pairs]
        ranges = RangeQueries(n, intervals)
        expected = np.zeros((len(intervals), n))
        for row, (lo, hi) in enumerate(intervals):
            expected[row, lo : hi + 1] = 1.0
        assert np.array_equal(ranges.dense(), expected)
        assert np.array_equal(ranges.sparse().toarray(), expected)
        assert ranges.sensitivity() == expected.sum(axis=0).max()
        assert ranges.intervals == intervals

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 12), cols=st.integers(1, 12))
    def test_range_queries_2d_sparse_equals_indicators(self, data, rows, cols):
        def span(size):
            return st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)).map(sorted)

        pairs = data.draw(st.lists(st.tuples(span(rows), span(cols)), min_size=1, max_size=12))
        rects = [(r_lo, r_hi, c_lo, c_hi) for (r_lo, r_hi), (c_lo, c_hi) in pairs]
        expected = np.zeros((len(rects), rows, cols))
        for i, (r_lo, r_hi, c_lo, c_hi) in enumerate(rects):
            expected[i, r_lo : r_hi + 1, c_lo : c_hi + 1] = 1.0
        ranges = RangeQueries2D(rows, cols, rects)

        def no_dense_detour(*args, **kwargs):
            raise AssertionError("sparse() materialised the matrix densely")

        with pytest.MonkeyPatch.context() as patch:
            for name in ("dense", "rows"):
                patch.setattr(RangeQueries2D, name, no_dense_detour)
            mat = ranges.sparse()
        assert mat.has_canonical_format
        assert np.array_equal(mat.toarray(), expected.reshape(len(rects), -1))


class TestHierarchicalIntervals:
    # The interval order is the row order of the hierarchy, so it decides
    # which noise draw each row gets: pinned to the exact historical order.
    @pytest.mark.parametrize(
        "n,branching,expected",
        [
            (10, 2, [(0, 9), (5, 9), (7, 9), (8, 9), (5, 6), (0, 4), (2, 4), (3, 4), (0, 1)]),
            (10, 3, [(0, 9), (6, 9), (8, 9), (3, 5), (0, 2)]),
            (16, 4, [(0, 15), (12, 15), (8, 11), (4, 7), (0, 3)]),
            (7, 2, [(0, 6), (3, 6), (5, 6), (3, 4), (0, 2), (1, 2)]),
            (12, 5, [(0, 11), (9, 11), (7, 8), (4, 6), (2, 3), (0, 1)]),
        ],
    )
    def test_order_is_pinned(self, n, branching, expected):
        assert hierarchical_intervals(n, branching) == expected

    def test_memoised_list_is_a_fresh_copy(self):
        first = hierarchical_intervals(32, 4)
        first.append((0, 0))
        second = hierarchical_intervals(32, 4)
        assert (0, 0) not in second
        assert second == hierarchical_intervals(32, 4)
        assert all(type(lo) is int and type(hi) is int for lo, hi in second)
