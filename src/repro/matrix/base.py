"""Base classes for the implicit linear-query matrix engine.

EKTELO (Sec. 7) represents three kinds of objects as matrices over a data
vector ``x`` of length ``n``:

* workload matrices ``W`` (the queries the analyst ultimately wants),
* measurement matrices ``M`` (the queries actually asked of the private data),
* partition matrices ``P`` (linear transformations that reduce or split ``x``).

For large domains these matrices cannot be materialised.  The paper identifies
five *primitive methods* that every matrix object must support so that all
plan-level computations (query evaluation, sensitivity, inference, reduction)
can be carried out without materialisation:

1. matrix-vector product            (``matvec``)
2. transpose                        (``T`` / ``rmatvec``)
3. matrix multiplication            (``__matmul__`` returning a lazy Product)
4. element-wise absolute value      (``__abs__``)
5. element-wise square              (``square``)

Every product with ``A`` or its transpose runs through one pair of kernels
per class, ``_matmat`` and ``_rmatmat``, which act on a 2-D block; a single
vector rides through them as a one-column block, so each class states its
product expression once and the operand checks live only in this module.

This module defines :class:`LinearQueryMatrix`, the abstract base class of all
matrix objects in the reproduction, plus the lazy :class:`TransposeMatrix`
view.  Concrete core matrices live in :mod:`repro.matrix.core`, combinators in
:mod:`repro.matrix.combinators`, and explicit dense/sparse wrappers in
:mod:`repro.matrix.dense`.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy import sparse as sp
from scipy.sparse.linalg import LinearOperator

#: Column-block width used by the blocked materialisation helpers
#: (:meth:`LinearQueryMatrix.dense`, :meth:`LinearQueryMatrix.gram_dense`,
#: :meth:`LinearQueryMatrix.rows`).  Bounds scratch memory at
#: ``shape[0] * MATERIALISE_BLOCK`` doubles per block.
MATERIALISE_BLOCK = 4096

#: Rows :meth:`LinearQueryMatrix.rows` extracts per block.
ROWS_BLOCK = 256

#: Cap on the scratch basis (``shape[0] * block`` cells, ~128 MB of float64)
#: used by :meth:`LinearQueryMatrix.rows`; the block width shrinks to stay
#: under it for matrices with very many rows.
_ROWS_SCRATCH_CELLS = 16_777_216

def _content_digest(*parts) -> str:
    """Whole SHA-256 hex digest of ndarrays/values, for canonical strategy
    keys: a key can seed a request's noise, where 64 bits collide after 2³²."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(str(part.dtype).encode())
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            digest.update(repr(part).encode())
    return digest.hexdigest()


def _as_column(v: np.ndarray, length: int, op: str) -> np.ndarray:
    """Coerce a matvec/rmatvec operand to a float64 ``(length, 1)`` column."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (length,) and v.shape != (length, 1):
        raise ValueError(
            f"dimension mismatch in {op}: operand has shape {v.shape}, "
            f"expected ({length},) or ({length}, 1)"
        )
    return v.reshape(length, 1)


def _validate_operand(B: np.ndarray, expected_rows: int, op: str) -> np.ndarray:
    """Coerce a matmat/rmatmat operand to a float64 2-D array and check shape."""
    B = np.asarray(B, dtype=np.float64)
    if B.ndim == 1:
        raise ValueError(
            f"{op} requires a 2-D operand; got a 1-D array of length {B.shape[0]}. "
            "Use matvec/rmatvec for vectors, or reshape to a single-column matrix."
        )
    if B.ndim != 2:
        raise ValueError(f"{op} requires a 2-D operand; got ndim={B.ndim}")
    if B.shape[0] != expected_rows:
        raise ValueError(
            f"dimension mismatch in {op}: operand has {B.shape[0]} rows, "
            f"expected {expected_rows}"
        )
    return B


class LinearQueryMatrix:
    """A real matrix defined implicitly by its action on vectors.

    Subclasses must set :attr:`shape` (an ``(m, n)`` tuple) and implement
    the product kernels :meth:`_matmat` and :meth:`_rmatmat`.  Everything
    else — sensitivity, query evaluation, Gram matrices, row extraction,
    materialisation — is derived from them, mirroring Table 1 of the paper.

    **Vectorized primitive protocol.**  The public products :meth:`matvec` /
    :meth:`rmatvec` (one vector) and :meth:`matmat` / :meth:`rmatmat` (a 2-D
    block) validate the operand (float64, matching length) and dispatch to
    the kernels, a single vector riding as a one-column block.  Each kernel is
    one closed-form NumPy/BLAS call (e.g. ``cumsum(axis=0)`` for Prefix, a
    reshaped tensor contraction for Kronecker).  Subclasses override the
    underscore kernels only — never the public methods — so validation stays
    uniform across the hierarchy.
    """

    #: (rows, columns) of the represented matrix.
    shape: tuple[int, int]

    #: Opt out of numpy's ufunc dispatch so expressions such as
    #: ``ndarray @ matrix`` fall back to :meth:`__rmatmul__` instead of numpy
    #: trying (and failing) to coerce the implicit matrix into an array.
    __array_ufunc__ = None

    # ------------------------------------------------------------------
    # Primitive methods (subclasses implement _matmat/_rmatmat).
    # ------------------------------------------------------------------
    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Return ``A @ v`` as a fresh ``(m,)`` array.

        ``v`` has shape ``(n,)`` or ``(n, 1)``; it rides through
        :meth:`_matmat` as a one-column block.
        """
        return self._matmat(_as_column(v, self.shape[1], "matvec"))[:, 0]

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """Return ``A.T @ v`` as a fresh ``(n,)`` array for ``v`` of shape
        ``(m,)`` or ``(m, 1)``."""
        return self._rmatmat(_as_column(v, self.shape[0], "rmatvec"))[:, 0]

    @property
    def T(self) -> "LinearQueryMatrix":
        """Lazy transpose view (primitive method 2)."""
        return TransposeMatrix(self)

    def __matmul__(self, other):
        """Matrix product.

        ``A @ v`` with a 1-D array delegates to :meth:`matvec` and a 2-D
        ndarray to :meth:`matmat`; ``A @ B`` with another
        :class:`LinearQueryMatrix` returns a lazy product (primitive method 3).
        """
        from .combinators import Product

        if isinstance(other, LinearQueryMatrix):
            return Product(self, other)
        other = np.asarray(other)
        if other.ndim == 1:
            return self.matvec(other)
        if other.ndim == 2:
            return self.matmat(other)
        raise TypeError(f"cannot multiply LinearQueryMatrix by {type(other)!r}")

    def __rmatmul__(self, other):
        other = np.asarray(other)
        if other.ndim == 1:
            return self.rmatvec(other)
        if other.ndim == 2:
            # (B @ A) = (A.T @ B.T).T
            return self.rmatmat(other.T).T
        raise TypeError(f"cannot multiply {type(other)!r} by LinearQueryMatrix")

    def matmat(self, B: np.ndarray) -> np.ndarray:
        """Return the dense product ``A @ B`` for a 2-D ndarray ``B``."""
        B = _validate_operand(B, self.shape[1], "matmat")
        return self._matmat(B)

    def rmatmat(self, B: np.ndarray) -> np.ndarray:
        """Return the dense product ``A.T @ B`` for a 2-D ndarray ``B``."""
        B = _validate_operand(B, self.shape[0], "rmatmat")
        return self._rmatmat(B)

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        """Kernel behind :meth:`matvec`/:meth:`matmat`: ``A @ B`` for a
        validated float64 ``(n, k)`` block, returned as fresh memory."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement the product kernels _matmat and _rmatmat"
        )

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        """Kernel behind :meth:`rmatvec`/:meth:`rmatmat`: ``A.T @ B`` for a
        validated float64 ``(m, k)`` block, returned as fresh memory."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement the product kernels _matmat and _rmatmat"
        )

    def __abs__(self) -> "LinearQueryMatrix":
        """Element-wise absolute value (primitive method 4).

        The generic fallback materialises; core matrices with non-negative
        entries override this as a no-op.
        """
        from .dense import SparseMatrix

        return SparseMatrix(abs(self.sparse()))

    def square(self) -> "LinearQueryMatrix":
        """Element-wise square (primitive method 5)."""
        from .dense import SparseMatrix

        mat = self.sparse()
        return SparseMatrix(mat.multiply(mat))

    # ------------------------------------------------------------------
    # Derived plan-level computations (Table 1).
    # ------------------------------------------------------------------
    def sensitivity(self) -> float:
        """L1 sensitivity: the maximum absolute column sum, ``||A||_1``.

        Computed as ``max(abs(A).T @ 1)`` using only primitive methods, so it
        works for implicit matrices without materialisation.
        """
        ones = np.ones(self.shape[0])
        return float(np.max(abs(self).rmatvec(ones)))

    def sensitivity_l2(self) -> float:
        """L2 sensitivity: the maximum column L2 norm, ``||A||_2``."""
        ones = np.ones(self.shape[0])
        return float(np.sqrt(np.max(self.square().rmatvec(ones))))

    def _row_indices(self, indices) -> np.ndarray:
        """Row indices as a 1-D ``intp`` array, each in ``0 <= i < m``.

        The one index rule of :meth:`row` and :meth:`rows`: every override
        checks through here, so a negative index is an ``IndexError`` on
        every class.
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=np.intp))
        if indices.ndim != 1:
            raise ValueError("rows expects a 1-D collection of row indices")
        if indices.size and (indices.min() < 0 or indices.max() >= self.shape[0]):
            raise IndexError("row index out of range")
        return indices

    def row(self, i: int) -> np.ndarray:
        """Materialise row ``i`` as a dense vector (``A.T @ e_i``)."""
        (i,) = self._row_indices(i)
        e = np.zeros(self.shape[0])
        e[i] = 1.0
        return self.rmatvec(e)

    def rows(self, indices) -> np.ndarray:
        """Materialise several rows at once as a ``(len(indices), n)`` array.

        Rows are extracted in blocks of :data:`ROWS_BLOCK` through
        :meth:`rmatmat` (``A.T @ E`` for a block of standard basis columns
        ``E``), so structured matrices pay one vectorized kernel call per
        block instead of one interpreter-level rmatvec per row.
        """
        indices = self._row_indices(indices)
        m = self.shape[0]
        # Shrink the block so the scratch basis stays bounded even for
        # matrices with millions of rows.
        block_size = max(1, min(ROWS_BLOCK, _ROWS_SCRATCH_CELLS // max(m, 1)))
        out = np.empty((indices.size, self.shape[1]), dtype=np.float64)
        basis = np.zeros((m, min(block_size, indices.size)))
        for lo in range(0, indices.size, block_size):
            chunk = indices[lo : lo + block_size]
            cols = np.arange(chunk.size)
            basis[chunk, cols] = 1.0
            out[lo : lo + chunk.size] = self.rmatmat(basis[:, : chunk.size]).T
            basis[chunk, cols] = 0.0
        return out

    def gram_dense(self) -> np.ndarray:
        """Materialise the Gram matrix ``A.T @ A`` as an ``(n, n)`` ndarray.

        Computed block-wise as ``A.T @ (A @ E)`` over column blocks of the
        identity, so scratch memory stays at ``m * MATERIALISE_BLOCK`` doubles
        even for tall-skinny measurement matrices.  This is the Gram that the
        dense kind of the normal-equations least-squares fast path factorises.
        """
        n = self.shape[1]
        out = np.empty((n, n), dtype=np.float64)
        for lo in range(0, n, MATERIALISE_BLOCK):
            hi = min(lo + MATERIALISE_BLOCK, n)
            basis = np.zeros((n, hi - lo))
            basis[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
            out[:, lo:hi] = self.rmatmat(self.matmat(basis))
        return out

    def tree_parents(self) -> np.ndarray | None:
        """The parent row of every row when the rows form a tree of sums, or
        ``None`` (the default).

        A matrix declares a tree when its first ``n`` rows are the identity
        (row ``i`` counts cell ``i``, a leaf) and every other row is the sum
        of the rows whose parent it is; the root's parent is -1.  The
        normal equations of such a matrix are solved by two passes over the
        tree, with no factorisation (the ``"tree"`` kind of
        :func:`~repro.operators.inference.build_normal_equations`).
        """
        return None

    def strategy_key(self) -> tuple:
        """Canonical hashable key identifying this matrix's *content*.

        Two matrices representing the same real matrix through the same
        construction produce equal keys, so the key can address shared
        data-independent artifacts (Gram factorisations, sensitivities) in the
        service's ``ArtifactCache`` across requests and tenants.  Structured
        classes build keys from O(1)/O(n) metadata; this generic fallback
        digests the materialised CSR content, which is correct for any
        subclass but costs a materialisation — override
        :meth:`_build_strategy_key` on new matrix classes that will be used
        as service strategies.  Matrix objects are treated as immutable, so
        keys are memoised per instance and later lookups are free.

        Subclasses override :meth:`_build_strategy_key`, never this method,
        so the memoisation stays uniform across the hierarchy.
        """
        key = self.__dict__.get("_strategy_key_cache")
        if key is None:
            key = self._build_strategy_key()
            self.__dict__["_strategy_key_cache"] = key
        return key

    def _build_strategy_key(self) -> tuple:
        """Kernel behind :meth:`strategy_key`; the content-digest fallback."""
        mat = self.sparse().tocsr()
        mat.sum_duplicates()
        return (
            "raw",
            type(self).__name__,
            self.shape,
            _content_digest(mat.data, mat.indices, mat.indptr),
        )

    # ------------------------------------------------------------------
    # Materialisation and interoperability.
    # ------------------------------------------------------------------
    def dense(self) -> np.ndarray:
        """Materialise to a dense ndarray via blocked :meth:`matmat` calls."""
        m, n = self.shape
        if n <= MATERIALISE_BLOCK:
            return self.matmat(np.eye(n))
        out = np.empty((m, n), dtype=np.float64)
        for lo in range(0, n, MATERIALISE_BLOCK):
            hi = min(lo + MATERIALISE_BLOCK, n)
            basis = np.zeros((n, hi - lo))
            basis[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
            out[:, lo:hi] = self.matmat(basis)
        return out

    def sparse(self) -> sp.csr_matrix:
        """Materialise to a scipy CSR matrix.

        Converts column blocks as they are produced, so dense scratch stays at
        ``m * MATERIALISE_BLOCK`` doubles instead of the full ``(m, n)`` array
        the old ``csr_matrix(self.dense())`` fallback allocated.
        """
        m, n = self.shape
        if n <= MATERIALISE_BLOCK:
            return sp.csr_matrix(self.dense())
        blocks = []
        for lo in range(0, n, MATERIALISE_BLOCK):
            hi = min(lo + MATERIALISE_BLOCK, n)
            basis = np.zeros((n, hi - lo))
            basis[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
            blocks.append(sp.csc_matrix(self.matmat(basis)))
        return sp.hstack(blocks, format="csr")

    def as_linear_operator(self) -> LinearOperator:
        """Bridge to :class:`scipy.sparse.linalg.LinearOperator`.

        Used by the iterative inference operators (LSMR, L-BFGS-B gradients).
        The matmat/rmatmat hooks are wired through so scipy solvers that
        operate on multiple right-hand sides hit the vectorized kernels.
        """
        return LinearOperator(
            shape=self.shape,
            matvec=self.matvec,
            rmatvec=self.rmatvec,
            matmat=self.matmat,
            rmatmat=self.rmatmat,
            dtype=np.float64,
        )

    def __mul__(self, scalar):
        from .combinators import Weighted

        if np.isscalar(scalar):
            return Weighted(self, float(scalar))
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(shape={self.shape})"


class TransposeMatrix(LinearQueryMatrix):
    """Lazy transpose view of another :class:`LinearQueryMatrix`."""

    def __init__(self, base: LinearQueryMatrix):
        self.base = base
        self.shape = (base.shape[1], base.shape[0])

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return self.base._rmatmat(B)

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self.base._matmat(B)

    @property
    def T(self) -> LinearQueryMatrix:
        return self.base

    def __abs__(self) -> LinearQueryMatrix:
        return TransposeMatrix(abs(self.base))

    def square(self) -> LinearQueryMatrix:
        return TransposeMatrix(self.base.square())

    def dense(self) -> np.ndarray:
        return self.base.dense().T

    def sparse(self) -> sp.csr_matrix:
        return sp.csr_matrix(self.base.sparse().T)

    def _build_strategy_key(self) -> tuple:
        return ("transpose", self.base.strategy_key())


def ensure_matrix(obj) -> LinearQueryMatrix:
    """Coerce ndarrays / scipy sparse matrices into :class:`LinearQueryMatrix`."""
    from .dense import DenseMatrix, SparseMatrix

    if isinstance(obj, LinearQueryMatrix):
        return obj
    if sp.issparse(obj):
        return SparseMatrix(obj)
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D array-like to build a matrix")
    return DenseMatrix(arr)
