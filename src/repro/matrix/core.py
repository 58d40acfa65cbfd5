"""Core implicit matrices (Table 2 of the paper).

Each core matrix stores O(1) state (essentially just its dimensions) yet
supports matrix-vector products in O(n) or O(n log n) time:

============  ===========  ==================
Core matrix   Space usage  Time (matvec)
============  ===========  ==================
Identity      O(1)         O(n)
Ones          O(1)         O(m + n)
Total         O(1)         O(n)
Prefix        O(1)         O(n)
Suffix        O(1)         O(n)
Wavelet       O(1)         O(n log n)
============  ===========  ==================
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from .base import LinearQueryMatrix


class Identity(LinearQueryMatrix):
    """The ``n x n`` identity matrix: measures every cell of the data vector."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("Identity requires a positive domain size")
        self.n = int(n)
        self.shape = (self.n, self.n)

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return B.copy()

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return B.copy()

    @property
    def T(self) -> LinearQueryMatrix:
        return self

    def __abs__(self) -> LinearQueryMatrix:
        return self

    def square(self) -> LinearQueryMatrix:
        return self

    def sensitivity(self) -> float:
        return 1.0

    def sensitivity_l2(self) -> float:
        return 1.0

    def dense(self) -> np.ndarray:
        return np.eye(self.n)

    def sparse(self) -> sp.csr_matrix:
        return sp.identity(self.n, format="csr")

    def gram_dense(self) -> np.ndarray:
        return np.eye(self.n)

    def _build_strategy_key(self) -> tuple:
        return ("Identity", self.n)


class Ones(LinearQueryMatrix):
    """The ``m x n`` all-ones matrix.

    Every row is the total query; useful as a building block and as the
    expansion of a uniformity assumption.
    """

    def __init__(self, m: int, n: int):
        if m <= 0 or n <= 0:
            raise ValueError("Ones requires positive dimensions")
        self.shape = (int(m), int(n))

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return np.tile(B.sum(axis=0), (self.shape[0], 1))

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return np.tile(B.sum(axis=0), (self.shape[1], 1))

    @property
    def T(self) -> LinearQueryMatrix:
        return Ones(self.shape[1], self.shape[0])

    def __abs__(self) -> LinearQueryMatrix:
        return self

    def square(self) -> LinearQueryMatrix:
        return self

    def sensitivity(self) -> float:
        return float(self.shape[0])

    def sensitivity_l2(self) -> float:
        return float(np.sqrt(self.shape[0]))

    def dense(self) -> np.ndarray:
        return np.ones(self.shape)

    def sparse(self) -> sp.csr_matrix:
        # Built structurally: every row is the full index range, so the CSR
        # arrays are written directly without an (m, n) dense intermediate.
        m, n = self.shape
        return sp.csr_matrix(
            (np.ones(m * n), np.tile(np.arange(n), m), np.arange(0, m * n + 1, n)),
            shape=self.shape,
        )

    def gram_dense(self) -> np.ndarray:
        # (Ones.T @ Ones)[i, j] = m for every i, j.
        return np.full((self.shape[1], self.shape[1]), float(self.shape[0]))

    def _build_strategy_key(self) -> tuple:
        return ("Ones", self.shape)


class Total(Ones):
    """The ``1 x n`` total query — the special case of :class:`Ones` with m=1."""

    def __init__(self, n: int):
        super().__init__(1, n)


class Prefix(LinearQueryMatrix):
    """The ``n x n`` lower-triangular prefix-sum (empirical CDF) matrix.

    Row ``k`` sums cells ``0..k``.  Matrix-vector products are a single
    cumulative sum; the transpose is the :class:`Suffix` matrix.
    """

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("Prefix requires a positive domain size")
        self.n = int(n)
        self.shape = (self.n, self.n)

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return np.cumsum(B, axis=0)

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return np.cumsum(B[::-1], axis=0)[::-1]

    @property
    def T(self) -> LinearQueryMatrix:
        return Suffix(self.n)

    def __abs__(self) -> LinearQueryMatrix:
        return self

    def square(self) -> LinearQueryMatrix:
        return self

    def sensitivity(self) -> float:
        return float(self.n)

    def sensitivity_l2(self) -> float:
        return float(np.sqrt(self.n))

    def dense(self) -> np.ndarray:
        return np.tril(np.ones((self.n, self.n)))

    def sparse(self) -> sp.csr_matrix:
        return sp.csr_matrix(np.tril(np.ones((self.n, self.n))))

    def gram_dense(self) -> np.ndarray:
        # Columns i and j overlap in rows max(i, j)..n-1.
        idx = np.arange(self.n, dtype=np.float64)
        return self.n - np.maximum.outer(idx, idx)

    def _build_strategy_key(self) -> tuple:
        return ("Prefix", self.n)


class Suffix(LinearQueryMatrix):
    """The ``n x n`` upper-triangular suffix-sum matrix (transpose of Prefix)."""

    def __init__(self, n: int):
        if n <= 0:
            raise ValueError("Suffix requires a positive domain size")
        self.n = int(n)
        self.shape = (self.n, self.n)

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return np.cumsum(B[::-1], axis=0)[::-1]

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return np.cumsum(B, axis=0)

    @property
    def T(self) -> LinearQueryMatrix:
        return Prefix(self.n)

    def __abs__(self) -> LinearQueryMatrix:
        return self

    def square(self) -> LinearQueryMatrix:
        return self

    def sensitivity(self) -> float:
        return float(self.n)

    def sensitivity_l2(self) -> float:
        return float(np.sqrt(self.n))

    def dense(self) -> np.ndarray:
        return np.triu(np.ones((self.n, self.n)))

    def sparse(self) -> sp.csr_matrix:
        return sp.csr_matrix(np.triu(np.ones((self.n, self.n))))

    def gram_dense(self) -> np.ndarray:
        # Columns i and j overlap in rows 0..min(i, j).
        idx = np.arange(self.n, dtype=np.float64)
        return np.minimum.outer(idx, idx) + 1.0

    def _build_strategy_key(self) -> tuple:
        return ("Suffix", self.n)


def _haar_matmat(B: np.ndarray) -> np.ndarray:
    """Apply the (unnormalised) Haar wavelet transform used by Privelet.

    Operates column-wise on a ``(n, k)`` block: the matrix has one row for the
    total plus, at each level, rows computing the difference between the sums
    of the left and right halves of each dyadic interval.  ``n`` must be a
    power of two.
    """
    rows = [B.sum(axis=0, keepdims=True)]
    current = B
    while current.shape[0] > 1:
        half = current.shape[0] // 2
        pairs = current.reshape(half, 2, -1)
        rows.append(pairs[:, 0, :] - pairs[:, 1, :])
        current = pairs.sum(axis=1)
    # Order: coarse -> fine. Build output with total first, then levels from
    # coarsest (length-1 difference of halves) to finest.
    out = [rows[0]]
    for level in reversed(rows[1:]):
        out.append(level)
    return np.concatenate(out, axis=0)


def _haar_rmatmat(U: np.ndarray, n: int) -> np.ndarray:
    """Transpose of :func:`_haar_matmat` applied to an ``(n, k)`` block."""
    result = np.repeat(U[:1], n, axis=0)
    idx = 1
    size = 1
    width = n
    while width > 1:
        width //= 2
        coeffs = U[idx : idx + size]
        # Each coefficient at this level covers a block of 2*width cells:
        # +1 on the left half of the block, -1 on the right half.
        block = 2 * width
        signs = np.concatenate([np.ones(width), -np.ones(width)])
        result += np.repeat(coeffs, block, axis=0) * np.tile(signs, size)[:, np.newaxis]
        idx += size
        size *= 2
    return result


class HaarWavelet(LinearQueryMatrix):
    """The ``n x n`` Haar wavelet transform matrix (n a power of two).

    Used by the Privelet algorithm: its L1 sensitivity grows logarithmically
    with the domain size while still allowing exact reconstruction of any
    range query.
    """

    def __init__(self, n: int):
        n = int(n)
        if n <= 0 or (n & (n - 1)) != 0:
            raise ValueError("HaarWavelet requires n to be a positive power of two")
        self.n = n
        self.shape = (n, n)

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return _haar_matmat(B)

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return _haar_rmatmat(B, self.n)

    def sensitivity(self) -> float:
        # Every column has exactly one +/-1 entry at each of the log2(n)
        # difference levels plus the total row.
        return float(1 + np.log2(self.n))

    def sparse(self) -> sp.csr_matrix:
        # Built structurally, row by row in the order of _haar_matmat: the
        # total, then each level's 2**level rows, coarse to fine.  A level's
        # rows tile the domain with blocks of n >> level cells, +1 on the
        # left half of each block and -1 on the right half, so every row
        # block (total included) holds each column exactly once.
        n = self.n
        levels = n.bit_length() - 1
        data, indptr = [np.ones(n)], [np.array([0, n])]
        for level in range(levels):
            block = n >> level
            data.append(np.tile(np.repeat([1.0, -1.0], block // 2), 1 << level))
            indptr.append(n * (level + 1) + block * np.arange(1, (1 << level) + 1))
        return sp.csr_matrix(
            (np.concatenate(data), np.tile(np.arange(n), levels + 1), np.concatenate(indptr)),
            shape=self.shape,
        )

    def _build_strategy_key(self) -> tuple:
        return ("HaarWavelet", self.n)
