"""Tests for the LinearQueryMatrix base API: transpose views, products with
arrays, Gram matrices, row extraction and the scipy LinearOperator bridge."""

import numpy as np
import pytest
from scipy.sparse.linalg import aslinearoperator, lsmr

from repro.matrix import (
    DenseMatrix,
    HierarchicalQueries,
    Identity,
    Kronecker,
    Prefix,
    SparseMatrix,
    Total,
    TransposeMatrix,
    VStack,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestTransposeView:
    def test_double_transpose_returns_base(self):
        p = Prefix(5)
        view = TransposeMatrix(p)
        assert view.T is p

    def test_abs_and_square_propagate(self, rng):
        d = DenseMatrix(rng.normal(size=(3, 4)))
        view = d.T if isinstance(d.T, TransposeMatrix) else TransposeMatrix(d)
        assert np.allclose(abs(TransposeMatrix(d)).dense(), np.abs(d.dense()).T)
        assert np.allclose(TransposeMatrix(d).square().dense(), (d.dense() ** 2).T)

    def test_shapes(self):
        view = TransposeMatrix(Total(7))
        assert view.shape == (7, 1)
        assert view.dense().shape == (7, 1)


class TestMatmulProtocol:
    def test_matrix_times_2d_array(self, rng):
        p = Prefix(4)
        block = rng.normal(size=(4, 3))
        assert np.allclose(p @ block, p.dense() @ block)

    def test_array_times_matrix(self, rng):
        p = Prefix(4)
        vector = rng.normal(size=4)
        assert np.allclose(vector @ p, vector @ p.dense())
        block = rng.normal(size=(2, 4))
        assert np.allclose(block @ p, block @ p.dense())

    def test_invalid_operand_type(self):
        with pytest.raises(TypeError):
            Prefix(4) @ "nope"

    def test_matmat_column_by_column(self, rng):
        h = HierarchicalQueries(8)
        block = rng.normal(size=(8, 5))
        assert np.allclose(h.matmat(block), h.dense() @ block)


class TestGramAndRows:
    def test_gram_is_symmetric_psd(self, rng):
        h = HierarchicalQueries(10)
        gram_dense = h.gram_dense()
        assert np.allclose(gram_dense, gram_dense.T, atol=1e-9)
        eigenvalues = np.linalg.eigvalsh(gram_dense)
        assert np.all(eigenvalues > -1e-9)

    def test_row_extraction_on_composites(self, rng):
        stacked = VStack([Identity(6), Prefix(6), Total(6)])
        dense = stacked.dense()
        for i in [0, 5, 6, 11, 12]:
            assert np.allclose(stacked.row(i), dense[i])

    def test_row_out_of_range(self):
        with pytest.raises(IndexError):
            VStack([Identity(3)]).row(5)

    def test_kronecker_row(self, rng):
        k = Kronecker([DenseMatrix(rng.normal(size=(2, 3))), Prefix(4)])
        dense = k.dense()
        assert np.allclose(k.row(3), dense[3])


class TestLinearOperatorBridge:
    def test_lsmr_solves_through_bridge(self, rng):
        h = HierarchicalQueries(16)
        x = rng.integers(0, 10, 16).astype(float)
        y = h.matvec(x)
        solution = lsmr(h.as_linear_operator(), y)[0]
        assert np.allclose(solution, x, atol=1e-5)

    def test_bridge_shapes_and_dtype(self):
        operator = Prefix(9).as_linear_operator()
        assert operator.shape == (9, 9)
        assert operator.dtype == np.float64

    def test_aslinearoperator_composition(self, rng):
        # The bridge composes with scipy's own operator algebra.
        op = aslinearoperator(np.eye(5)) + Prefix(5).as_linear_operator()
        v = rng.normal(size=5)
        assert np.allclose(op.matvec(v), v + np.cumsum(v))


class TestSparseMatrixWrapper:
    def test_row(self):
        import scipy.sparse as sp

        s = SparseMatrix(sp.csr_matrix(np.triu(np.ones((4, 4)))))
        assert np.allclose(s.row(1), [0, 1, 1, 1])

    def test_transpose(self, rng):
        import scipy.sparse as sp

        dense = rng.normal(size=(3, 5))
        s = SparseMatrix(sp.csr_matrix(dense))
        assert np.allclose(s.T.dense(), dense.T)
