"""Explicit (materialised) matrix wrappers.

These adapt numpy dense arrays and scipy sparse matrices to the
:class:`~repro.matrix.base.LinearQueryMatrix` interface so explicit and
implicit matrices can be combined freely inside plans, and so the benchmarks
can switch representations (dense / sparse / implicit) for the scalability
experiments of Sec. 10.2.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from .base import LinearQueryMatrix, _content_digest


class DenseMatrix(LinearQueryMatrix):
    """A :class:`LinearQueryMatrix` backed by a dense ndarray."""

    def __init__(self, array: np.ndarray):
        array = np.asarray(array, dtype=np.float64)
        if array.ndim != 2:
            raise ValueError("DenseMatrix requires a 2-D array")
        self.array = array
        self.shape = array.shape

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return self.array @ B

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self.array.T @ B

    def gram_dense(self) -> np.ndarray:
        return self.array.T @ self.array

    def sensitivity_l2(self) -> float:
        return float(np.sqrt(np.max(np.einsum("ij,ij->j", self.array, self.array))))

    def _build_strategy_key(self) -> tuple:
        return ("Dense", self.shape, _content_digest(self.array))

    @property
    def T(self) -> LinearQueryMatrix:
        return DenseMatrix(self.array.T)

    def __abs__(self) -> LinearQueryMatrix:
        return DenseMatrix(np.abs(self.array))

    def square(self) -> LinearQueryMatrix:
        return DenseMatrix(self.array**2)

    def dense(self) -> np.ndarray:
        return self.array

    def sparse(self) -> sp.csr_matrix:
        return sp.csr_matrix(self.array)

    def row(self, i: int) -> np.ndarray:
        (i,) = self._row_indices(i)
        return self.array[i].copy()

    def rows(self, indices) -> np.ndarray:
        return self.array[self._row_indices(indices)]


class SparseMatrix(LinearQueryMatrix):
    """A :class:`LinearQueryMatrix` backed by a scipy sparse matrix (CSR)."""

    def __init__(self, matrix):
        if not sp.issparse(matrix):
            matrix = sp.csr_matrix(np.asarray(matrix, dtype=np.float64))
        self.matrix = matrix.tocsr().astype(np.float64)
        self.shape = self.matrix.shape
        self._transpose = None

    def _transposed(self) -> sp.csc_matrix:
        """``self.matrix.T``, built on the first transposed product and reused.

        The CSC transpose shares the CSR's arrays, and the product is the one
        a fresh ``self.matrix.T`` gives, bit for bit.  Two threads racing on
        the first call both build the same value, so the race is harmless.
        """
        if self._transpose is None:
            self._transpose = self.matrix.T
        return self._transpose

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return np.asarray(self.matrix @ B)

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return np.asarray(self._transposed() @ B)

    def gram_dense(self) -> np.ndarray:
        return np.asarray((self.matrix.T @ self.matrix).todense())

    def sensitivity_l2(self) -> float:
        squared = self.matrix.multiply(self.matrix)
        return float(np.sqrt(np.max(np.asarray(squared.sum(axis=0)))))

    def _build_strategy_key(self) -> tuple:
        mat = self.matrix
        return ("Sparse", self.shape, _content_digest(mat.data, mat.indices, mat.indptr))

    @property
    def T(self) -> LinearQueryMatrix:
        return SparseMatrix(self.matrix.T.tocsr())

    def __abs__(self) -> LinearQueryMatrix:
        return SparseMatrix(abs(self.matrix))

    def square(self) -> LinearQueryMatrix:
        return SparseMatrix(self.matrix.multiply(self.matrix))

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def sparse(self) -> sp.csr_matrix:
        return self.matrix

    def row(self, i: int) -> np.ndarray:
        (i,) = self._row_indices(i)
        return np.asarray(self.matrix.getrow(i).todense()).ravel()

    def rows(self, indices) -> np.ndarray:
        return np.asarray(self.matrix[self._row_indices(indices)].todense())
