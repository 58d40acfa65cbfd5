"""Property tests for the product protocol of the matrix engine.

Each matrix class implements one pair of product kernels, ``_matmat`` and
``_rmatmat``; ``matvec``/``rmatvec`` are the one-column case of the same
kernels.  A structural test pins that rule over every class in
:mod:`repro.matrix`.  Every matrix in the registry below (one per class, plus
nested Kronecker / VStack / Product compositions) must satisfy:

* ``matvec(v)`` equals ``dense() @ v``, with the same float64 ``(m,)`` result
  for ``(n,)``, ``(n, 1)``, list and int64 input, in memory not shared with
  the input, and a ``dimension mismatch`` ``ValueError`` on a wrong length
  (likewise ``rmatvec``),
* ``matmat(B)`` / ``rmatmat(B)`` equal the column-stacked single-vector
  products,
* ``rows(indices)`` equals stacking ``row(i)`` per index, and both raise
  ``IndexError`` outside ``0 <= i < m``,
* ``dense()`` is consistent with matvec on basis vectors,
* ``abs(M)`` and ``M.square()`` are the element-wise forms of ``dense()``,
  and ``sensitivity()``/``sensitivity_l2()`` its largest column L1/L2 norms.

The block operand checks (float64 output, 1-D rejection, shape checks) are
asserted once against representative classes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.matrix import (
    DenseMatrix,
    HaarWavelet,
    HierarchicalQueries,
    Identity,
    Kronecker,
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
)
from repro.matrix.base import LinearQueryMatrix


def _rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def _dense_example(m: int, n: int, seed: int = 7) -> DenseMatrix:
    return DenseMatrix(_rng(seed).normal(size=(m, n)))


def _sparse_example(m: int, n: int, seed: int = 11) -> SparseMatrix:
    arr = _rng(seed).normal(size=(m, n))
    arr[np.abs(arr) < 0.8] = 0.0
    return SparseMatrix(arr)


def matrix_registry() -> list[tuple[str, LinearQueryMatrix]]:
    """One representative instance per matrix class, plus nested compositions."""
    reduction = ReductionMatrix(np.array([0, 0, 1, 2, 2, 2, 1, 0]))
    entries: list[tuple[str, LinearQueryMatrix]] = [
        ("identity", Identity(9)),
        ("ones", Ones(4, 6)),
        ("total", Total(5)),
        ("prefix", Prefix(8)),
        ("suffix", Suffix(8)),
        ("wavelet", HaarWavelet(16)),
        ("dense", _dense_example(5, 7)),
        ("sparse", _sparse_example(6, 9)),
        ("transpose", Prefix(6).T),
        ("weighted", Weighted(Prefix(7), -2.5)),
        ("vstack", VStack([Identity(6), Prefix(6), _dense_example(3, 6)])),
        ("product", Product(_dense_example(4, 6), Prefix(6))),
        ("kronecker", Kronecker([Prefix(3), Identity(4)])),
        ("ranges", RangeQueries(10, [(0, 3), (2, 7), (9, 9)])),
        ("ranges2d", RangeQueries2D(3, 4, [(0, 1, 1, 2), (2, 2, 0, 3)])),
        ("hierarchical", HierarchicalQueries(9, branching=3)),
        ("reduction", reduction),
        ("expansion", reduction.pseudo_inverse()),
        ("expansion_sq", reduction.pseudo_inverse().square()),
        (
            "kron_of_stack",
            Kronecker([VStack([Total(3), Identity(3)]), Prefix(4)]),
        ),
        (
            "stack_of_kron",
            VStack(
                [
                    Kronecker([Identity(2), Prefix(5)]),
                    Kronecker([Total(2), Identity(5)]),
                    _dense_example(4, 10),
                ]
            ),
        ),
        (
            "product_of_kron",
            Product(
                Kronecker([Prefix(2), Identity(4)]),
                Kronecker([Identity(2), Suffix(4)]),
            ),
        ),
        (
            "nested_kron",
            Kronecker([Kronecker([Prefix(2), Identity(3)]), Total(4)]),
        ),
        (
            "weighted_stack_product",
            Weighted(Product(VStack([Identity(5), Prefix(5)]), _dense_example(5, 4)), 0.5),
        ),
    ]
    return entries


REGISTRY = matrix_registry()
IDS = [name for name, _ in REGISTRY]
MATRICES = [matrix for _, matrix in REGISTRY]


@pytest.fixture(params=MATRICES, ids=IDS)
def matrix(request) -> LinearQueryMatrix:
    return request.param


class TestMatmatEqualsColumnStackedMatvec:
    def test_matmat(self, matrix):
        B = _rng(1).normal(size=(matrix.shape[1], 5))
        expected = np.column_stack([matrix.matvec(B[:, j]) for j in range(B.shape[1])])
        np.testing.assert_allclose(matrix.matmat(B), expected, atol=1e-10)

    def test_rmatmat(self, matrix):
        B = _rng(2).normal(size=(matrix.shape[0], 4))
        expected = np.column_stack([matrix.rmatvec(B[:, j]) for j in range(B.shape[1])])
        np.testing.assert_allclose(matrix.rmatmat(B), expected, atol=1e-10)

    def test_single_column(self, matrix):
        v = _rng(3).normal(size=matrix.shape[1])
        np.testing.assert_allclose(matrix.matvec(v), matrix.dense() @ v, atol=1e-10)
        u = _rng(3).normal(size=matrix.shape[0])
        np.testing.assert_allclose(matrix.rmatvec(u), matrix.dense().T @ u, atol=1e-10)

    def test_transpose_view_consistency(self, matrix):
        B = _rng(4).normal(size=(matrix.shape[0], 3))
        np.testing.assert_allclose(matrix.T.matmat(B), matrix.rmatmat(B), atol=1e-10)


class TestDerivedOperations:
    def test_dense_matches_matvec_on_basis(self, matrix):
        dense = matrix.dense()
        assert dense.shape == matrix.shape
        for j in range(matrix.shape[1]):
            e = np.zeros(matrix.shape[1])
            e[j] = 1.0
            np.testing.assert_allclose(dense[:, j], matrix.matvec(e), atol=1e-10)

    def test_rows_matches_row(self, matrix):
        indices = [0, matrix.shape[0] - 1, matrix.shape[0] // 2]
        batched = matrix.rows(indices)
        expected = np.vstack([matrix.row(i) for i in indices])
        np.testing.assert_allclose(batched, expected, atol=1e-10)

    def test_rows_blocked_extraction(self, matrix, monkeypatch):
        # Force multiple blocks to exercise the block loop.
        from repro.matrix import base as base_mod

        monkeypatch.setattr(base_mod, "ROWS_BLOCK", 2)
        indices = np.arange(matrix.shape[0])
        batched = matrix.rows(indices)
        np.testing.assert_allclose(batched, matrix.dense(), atol=1e-10)

    def test_rows_scratch_cap_shrinks_block(self, monkeypatch):
        # With a tiny scratch budget the block width collapses to 1 and the
        # extraction must still be correct (and never allocate a wide basis).
        from repro.matrix import base as base_mod

        monkeypatch.setattr(base_mod, "_ROWS_SCRATCH_CELLS", 8)
        matrix = HierarchicalQueries(8)
        indices = np.arange(matrix.shape[0])
        np.testing.assert_allclose(matrix.rows(indices), matrix.dense(), atol=1e-10)

    def test_gram_dense(self, matrix):
        dense = matrix.dense()
        np.testing.assert_allclose(
            matrix.gram_dense(), dense.T @ dense, atol=1e-8
        )

    def test_gram_dense_blocked(self, matrix, monkeypatch):
        from repro.matrix import base as base_mod

        dense = matrix.dense()
        monkeypatch.setattr(base_mod, "MATERIALISE_BLOCK", 3)
        got = LinearQueryMatrix.gram_dense(matrix)
        np.testing.assert_allclose(got, dense.T @ dense, atol=1e-8)

    def test_linear_operator_matmat(self, matrix):
        op = matrix.as_linear_operator()
        B = _rng(5).normal(size=(matrix.shape[1], 3))
        np.testing.assert_allclose(op.matmat(B), matrix.dense() @ B, atol=1e-8)

    def test_rmatmul_dunder(self, matrix):
        B = _rng(6).normal(size=(2, matrix.shape[0]))
        np.testing.assert_allclose(B @ matrix, B @ matrix.dense(), atol=1e-8)

    def test_abs_and_square_match_dense(self, matrix):
        # Each class's closed form (or the materialising fallback, as for
        # Product) is the element-wise |A| and A∘A of dense().
        dense = matrix.dense()
        absolute, squared = abs(matrix), matrix.square()
        assert absolute.shape == squared.shape == matrix.shape
        np.testing.assert_allclose(absolute.dense(), np.abs(dense), atol=1e-12)
        np.testing.assert_allclose(squared.dense(), dense**2, atol=1e-12)

    def test_sensitivities_match_dense_column_norms(self, matrix):
        # ||A||_1 and ||A||_2 calibrate the Laplace and Gaussian noise of a
        # measurement: the largest column L1 and L2 norms of dense().
        dense = matrix.dense()
        l1 = np.abs(dense).sum(axis=0).max()
        l2 = np.sqrt((dense**2).sum(axis=0).max())
        assert matrix.sensitivity() == pytest.approx(l1, rel=1e-12)
        assert matrix.sensitivity_l2() == pytest.approx(l2, rel=1e-12)


class TestOperandValidation:
    @pytest.mark.parametrize(
        "example",
        [Identity(4), Prefix(4), _dense_example(4, 4), Kronecker([Prefix(2), Identity(2)])],
        ids=["identity", "prefix", "dense", "kron"],
    )
    def test_rejects_1d_operand(self, example):
        with pytest.raises(ValueError, match="matvec"):
            example.matmat(np.ones(4))
        with pytest.raises(ValueError, match="matvec"):
            example.rmatmat(np.ones(4))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            Prefix(4).matmat(np.ones((5, 2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            Ones(3, 4).rmatmat(np.ones((4, 2)))

    def test_output_is_float64(self, matrix):
        B = np.ones((matrix.shape[1], 2), dtype=np.int64)
        out = matrix.matmat(B)
        assert out.dtype == np.float64
        out_r = matrix.rmatmat(np.ones((matrix.shape[0], 2), dtype=np.int32))
        assert out_r.dtype == np.float64


class TestSingleVectorProducts:
    """matvec/rmatvec: one validation and one result form for every class."""

    @pytest.mark.parametrize("op", ["matvec", "rmatvec"])
    def test_wrong_length_raises(self, matrix, op):
        length = matrix.shape[1] if op == "matvec" else matrix.shape[0]
        product = getattr(matrix, op)
        for bad in (np.ones(length + 1), np.ones(length - 1), np.ones((length, 2))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                product(bad)

    @pytest.mark.parametrize("op", ["matvec", "rmatvec"])
    def test_input_forms_agree(self, matrix, op):
        length, out_length = matrix.shape[::-1] if op == "matvec" else matrix.shape
        product = getattr(matrix, op)
        ints = np.arange(length, dtype=np.int64) - length // 2
        floats = ints.astype(np.float64)
        expected = product(floats)
        assert expected.dtype == np.float64 and expected.shape == (out_length,)
        for v in (floats.reshape(-1, 1), ints, ints.tolist()):
            out = product(v)
            assert out.dtype == np.float64 and out.shape == (out_length,)
            np.testing.assert_array_equal(out, expected)
        for v in (floats, floats.reshape(-1, 1)):
            assert not np.shares_memory(product(v), v)


class TestRowIndexRule:
    def test_out_of_range_index_raises(self, matrix):
        m = matrix.shape[0]
        for bad in (-1, m):
            with pytest.raises(IndexError):
                matrix.row(bad)
            with pytest.raises(IndexError):
                matrix.rows([bad])


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *_subclasses(sub)]
    return found


class TestProductProtocol:
    """Subclasses implement the kernels, never the public products."""

    def test_library_classes_override_only_the_kernels(self):
        import repro.matrix  # noqa: F401 - defines every library class

        classes = [
            cls for cls in _subclasses(LinearQueryMatrix) if cls.__module__.startswith("repro.")
        ]
        assert len(classes) >= 19
        for cls in classes:
            for name in ("matvec", "rmatvec", "matmat", "rmatmat"):
                assert name not in vars(cls), f"{cls.__name__} overrides {name}"
            for name in ("_matmat", "_rmatmat"):
                assert getattr(cls, name) is not getattr(LinearQueryMatrix, name), (
                    f"{cls.__name__} lacks the {name} kernel"
                )

    def test_missing_kernels_raise_naming_the_protocol(self):
        class NoKernels(LinearQueryMatrix):
            shape = (2, 2)

        with pytest.raises(NotImplementedError, match="_matmat and _rmatmat"):
            NoKernels().matvec(np.ones(2))
        with pytest.raises(NotImplementedError, match="_matmat and _rmatmat"):
            NoKernels().rmatmat(np.ones((2, 1)))


class TestInferenceFastPaths:
    def _reference_mw(self, queries, answers, total, iterations=7):
        """The seed's row-at-a-time MW loop, kept as the equivalence oracle."""
        queries = queries if hasattr(queries, "row") else DenseMatrix(queries)
        n = queries.shape[1]
        x_hat = np.full(n, total / n)
        for _ in range(iterations):
            for i in range(queries.shape[0]):
                row = queries.row(i)
                estimate = float(row @ x_hat)
                error = answers[i] - estimate
                x_hat = x_hat * np.exp(row * error / (2.0 * total))
                x_hat *= total / x_hat.sum()
        return x_hat

    def test_mw_sequential_equivalent_to_seed(self):
        from repro.operators.inference import multiplicative_weights

        rng = _rng(42)
        queries = HierarchicalQueries(16)
        x_true = rng.integers(0, 20, size=16).astype(np.float64)
        answers = queries.matvec(x_true) + rng.normal(scale=0.5, size=queries.shape[0])
        total = float(x_true.sum())
        result = multiplicative_weights(queries, answers, total=total, iterations=7)
        expected = self._reference_mw(queries, answers, total, iterations=7)
        np.testing.assert_allclose(result.x_hat, expected, rtol=1e-9)

    def test_mw_sequential_equivalent_when_cache_disabled(self, monkeypatch):
        from repro.operators.inference import mult_weights

        monkeypatch.setattr(mult_weights, "_ROW_CACHE_CELLS", 0)
        rng = _rng(43)
        queries = RangeQueries(12, [(0, 5), (3, 9), (2, 2), (0, 11)])
        x_true = rng.integers(0, 10, size=12).astype(np.float64)
        answers = queries.matvec(x_true)
        total = float(x_true.sum())
        result = mult_weights.multiplicative_weights(
            queries, answers, total=total, iterations=5
        )
        expected = self._reference_mw(queries, answers, total, iterations=5)
        np.testing.assert_allclose(result.x_hat, expected, rtol=1e-9)

    def test_least_squares_normal_matches_lsmr(self):
        from repro.operators.inference import least_squares

        rng = _rng(45)
        queries = HierarchicalQueries(64)
        x_true = rng.normal(size=64)
        answers = queries.matvec(x_true) + rng.normal(scale=0.1, size=queries.shape[0])
        via_lsmr = least_squares(queries, answers, method="lsmr", tolerance=1e-12)
        via_normal = least_squares(queries, answers, method="normal")
        np.testing.assert_allclose(via_normal.x_hat, via_lsmr.x_hat, atol=1e-6)

    def test_least_squares_refuses_the_auto_method(self):
        from repro.operators.inference import least_squares

        # The solver policy lives in infer_least_squares alone.
        queries = VStack([HierarchicalQueries(32), HierarchicalQueries(32)])
        answers = queries.matvec(_rng(46).normal(size=32))
        with pytest.raises(ValueError, match="unknown least-squares method 'auto'"):
            least_squares(queries, answers, method="auto")

    def test_least_squares_normal_rank_deficient_falls_back(self):
        from repro.operators.inference import least_squares

        queries = DenseMatrix(np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
        answers = np.array([2.0, 4.0, 6.0])
        result = least_squares(queries, answers, method="normal")
        np.testing.assert_allclose(queries.matvec(result.x_hat), answers, atol=1e-8)

    def test_least_squares_gram_shared_through_artifact_cache(self):
        from repro.operators.inference import least_squares
        from repro.service import ArtifactCache

        rng = _rng(47)
        cache = ArtifactCache()
        queries = HierarchicalQueries(32)
        for trial in range(3):
            answers = queries.matvec(rng.normal(size=32))
            result = least_squares(queries, answers, method="normal", gram_cache=cache)
            assert result.x_hat.shape == (32,)
        assert cache.stats["misses"] == 1
        assert cache.stats["hits"] == 2

    def test_least_squares_max_iterations_zero_is_honoured(self):
        from repro.operators.inference import least_squares

        queries = Prefix(8)
        answers = np.arange(1.0, 9.0)
        result = least_squares(queries, answers, method="lsmr", max_iterations=0)
        assert result.iterations == 0
        np.testing.assert_allclose(result.x_hat, np.zeros(8))


class TestKroneckerDenseBudget:
    def test_small_kronecker_materialises(self):
        k = Kronecker([Prefix(4), Identity(3)])
        np.testing.assert_allclose(k.dense(), np.kron(Prefix(4).dense(), np.eye(3)))

    def test_budget_exceeded_raises_with_cell_count(self):
        k = Kronecker([Prefix(4096), Prefix(4096)])
        with pytest.raises(ValueError) as excinfo:
            k.dense()
        message = str(excinfo.value)
        assert "dense_cell_budget" in message
        assert f"{4096**4:,}" in message

    def test_budget_is_configurable(self):
        k = Kronecker([Prefix(8), Prefix(8)])
        k.dense_cell_budget = 1_000
        with pytest.raises(ValueError):
            k.dense()
        k.dense_cell_budget = None
        assert k.dense().shape == (64, 64)

    def test_budget_covers_first_and_only_factor(self):
        single = Kronecker([Prefix(8)])
        single.dense_cell_budget = 10
        with pytest.raises(ValueError, match="dense_cell_budget"):
            single.dense()
        first_heavy = Kronecker([Prefix(8), Prefix(2)])
        first_heavy.dense_cell_budget = 32  # first factor alone is 64 cells
        with pytest.raises(ValueError, match="dense_cell_budget"):
            first_heavy.dense()
