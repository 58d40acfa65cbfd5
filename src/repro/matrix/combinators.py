"""Combinators for building composite implicit matrices (Sec. 7.4).

The EKTELO generalized matrix grammar composes core, sparse, and dense
matrices with three operations:

* ``Union``  — vertical stacking of query sets (here :class:`VStack`),
* ``Product`` — lazy matrix multiplication,
* ``Kronecker`` — Kronecker products for multi-dimensional domains.

A scalar :class:`Weighted` wrapper is added so measurement matrices can carry
per-query noise weights without materialisation.

Space and time complexity mirrors Table 3 of the paper: a composed matrix
stores only its sub-matrices, and its matvec cost is the sum (stack, product)
or the ``n_B * T(A) + m_A * T(B)`` mixture (Kronecker) of the children's
costs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse as sp

from .base import LinearQueryMatrix, ensure_matrix


class VStack(LinearQueryMatrix):
    """Union of query sets: vertical stack ``[A; B; ...]``.

    All sub-matrices must share a column count (the data-vector size).
    """

    def __init__(self, matrices: Sequence[LinearQueryMatrix]):
        self.matrices = [ensure_matrix(m) for m in matrices]
        if not self.matrices:
            raise ValueError("VStack requires at least one matrix")
        n = self.matrices[0].shape[1]
        for m in self.matrices:
            if m.shape[1] != n:
                raise ValueError("all stacked matrices must have the same column count")
        rows = sum(m.shape[0] for m in self.matrices)
        self.shape = (rows, n)

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return np.concatenate([m._matmat(B) for m in self.matrices], axis=0)

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        out = np.zeros((self.shape[1], B.shape[1]))
        offset = 0
        for m in self.matrices:
            rows = m.shape[0]
            out += m._rmatmat(B[offset : offset + rows])
            offset += rows
        return out

    def __abs__(self) -> LinearQueryMatrix:
        return VStack([abs(m) for m in self.matrices])

    def square(self) -> LinearQueryMatrix:
        return VStack([m.square() for m in self.matrices])

    def sensitivity_l2(self) -> float:
        # Stacking concatenates each column's entries, so squared column
        # norms add: each child contributes its diag(AᵀA), the column sums of
        # its own closed-form square, instead of a squared-matrix
        # materialisation.
        totals = sum(m.square().rmatvec(np.ones(m.shape[0])) for m in self.matrices)
        return float(np.sqrt(np.max(totals)))

    def dense(self) -> np.ndarray:
        # Fill a preallocated output instead of np.vstack to avoid one full copy.
        out = np.empty(self.shape)
        offset = 0
        for m in self.matrices:
            out[offset : offset + m.shape[0]] = m.dense()
            offset += m.shape[0]
        return out

    def sparse(self) -> sp.csr_matrix:
        return sp.vstack([m.sparse() for m in self.matrices], format="csr")

    def gram_dense(self, block_size: int | None = None) -> np.ndarray:
        # [A; B].T [A; B] = A.T A + B.T B — each child uses its own fast path.
        out = self.matrices[0].gram_dense()
        for m in self.matrices[1:]:
            out += m.gram_dense()
        return out

    def _build_strategy_key(self) -> tuple:
        return ("VStack", tuple(m.strategy_key() for m in self.matrices))

    def row(self, i: int) -> np.ndarray:
        (i,) = self._row_indices(i)
        for m in self.matrices:
            if i < m.shape[0]:
                return m.row(i)
            i -= m.shape[0]


class Product(LinearQueryMatrix):
    """Lazy matrix product ``A @ B``."""

    def __init__(self, left: LinearQueryMatrix, right: LinearQueryMatrix):
        self.left = ensure_matrix(left)
        self.right = ensure_matrix(right)
        if self.left.shape[1] != self.right.shape[0]:
            raise ValueError(
                f"incompatible shapes for product: {self.left.shape} @ {self.right.shape}"
            )
        self.shape = (self.left.shape[0], self.right.shape[1])

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return self.left._matmat(self.right._matmat(B))

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self.right._rmatmat(self.left._rmatmat(B))

    @property
    def T(self) -> LinearQueryMatrix:
        return Product(self.right.T, self.left.T)

    def dense(self) -> np.ndarray:
        return self.left.dense() @ self.right.dense()

    def sparse(self) -> sp.csr_matrix:
        return (self.left.sparse() @ self.right.sparse()).tocsr()

    def _build_strategy_key(self) -> tuple:
        return ("Product", self.left.strategy_key(), self.right.strategy_key())


class Weighted(LinearQueryMatrix):
    """Scalar multiple ``c * A`` of a matrix (used for noise weighting)."""

    def __init__(self, base: LinearQueryMatrix, weight: float):
        self.base = ensure_matrix(base)
        self.weight = float(weight)
        self.shape = self.base.shape

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return self.weight * self.base._matmat(B)

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self.weight * self.base._rmatmat(B)

    @property
    def T(self) -> LinearQueryMatrix:
        return Weighted(self.base.T, self.weight)

    def __abs__(self) -> LinearQueryMatrix:
        return Weighted(abs(self.base), abs(self.weight))

    def square(self) -> LinearQueryMatrix:
        return Weighted(self.base.square(), self.weight**2)

    def sensitivity(self) -> float:
        return abs(self.weight) * self.base.sensitivity()

    def sensitivity_l2(self) -> float:
        return abs(self.weight) * self.base.sensitivity_l2()

    def dense(self) -> np.ndarray:
        return self.weight * self.base.dense()

    def sparse(self) -> sp.csr_matrix:
        return (self.weight * self.base.sparse()).tocsr()

    def gram_dense(self, block_size: int | None = None) -> np.ndarray:
        return self.weight**2 * self.base.gram_dense()

    def _build_strategy_key(self) -> tuple:
        return ("Weighted", self.weight, self.base.strategy_key())

    def row(self, i: int) -> np.ndarray:
        return self.weight * self.base.row(i)


class Kronecker(LinearQueryMatrix):
    """Kronecker product ``A_1 (x) A_2 (x) ... (x) A_d``.

    For multi-dimensional domains the data vector is the flattening (row-major)
    of a ``d``-dimensional histogram; the Kronecker product of per-attribute
    query matrices encodes conjunctive combinations of the per-attribute
    queries (Definition 7.2).
    """

    def __init__(self, factors: Sequence[LinearQueryMatrix]):
        self.factors = [ensure_matrix(f) for f in factors]
        if not self.factors:
            raise ValueError("Kronecker requires at least one factor")
        rows = 1
        cols = 1
        for f in self.factors:
            rows *= f.shape[0]
            cols *= f.shape[1]
        self.shape = (rows, cols)

    def _apply_factors(self, block: np.ndarray, transpose: bool) -> np.ndarray:
        """Tensor contraction behind the ``_matmat``/``_rmatmat`` kernels.

        ``block`` has shape ``(n, k)`` (or ``(m, k)`` when ``transpose``); the
        ``k`` right-hand sides ride along as a trailing tensor axis so every
        factor is applied to all columns in one vectorized call.
        """
        k = block.shape[1]
        in_shape = tuple(f.shape[0 if transpose else 1] for f in self.factors)
        tensor = block.reshape(in_shape + (k,))
        # Apply factor i along axis i: move axis to front, flatten the rest,
        # multiply, and move back.  This is the standard multi-linear product.
        for axis, factor in enumerate(self.factors):
            applied = factor.T if transpose else factor
            tensor = np.moveaxis(tensor, axis, 0)
            lead = tensor.shape[0]
            rest = tensor.shape[1:]
            flat = tensor.reshape(lead, -1)
            flat = applied.matmat(flat)
            tensor = flat.reshape((applied.shape[0],) + rest)
            tensor = np.moveaxis(tensor, 0, axis)
        out_rows = self.shape[1] if transpose else self.shape[0]
        return tensor.reshape(out_rows, k)

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return self._apply_factors(B, transpose=False)

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self._apply_factors(B, transpose=True)

    @property
    def T(self) -> LinearQueryMatrix:
        return Kronecker([f.T for f in self.factors])

    def __abs__(self) -> LinearQueryMatrix:
        return Kronecker([abs(f) for f in self.factors])

    def square(self) -> LinearQueryMatrix:
        return Kronecker([f.square() for f in self.factors])

    def sensitivity(self) -> float:
        # ||A (x) B||_1 = ||A||_1 * ||B||_1 (max abs column sums multiply).
        result = 1.0
        for f in self.factors:
            result *= f.sensitivity()
        return result

    def sensitivity_l2(self) -> float:
        result = 1.0
        for f in self.factors:
            result *= f.sensitivity_l2()
        return result

    #: Maximum number of elements :meth:`dense` may materialise.  Roughly 512 MB
    #: of float64; override on the class or an instance to raise/lower the cap,
    #: or set to ``None`` to disable the check entirely.
    dense_cell_budget: int | None = 64_000_000

    def _check_dense_budget(self, cells: int) -> None:
        budget = self.dense_cell_budget
        if budget is not None and cells > budget:
            total = self.shape[0] * self.shape[1]
            raise ValueError(
                f"Kronecker.dense() would materialise {cells:,} elements "
                f"(full product: {total:,} = {self.shape[0]} x {self.shape[1]}), "
                f"exceeding the cell budget of {budget:,}.  Keep the matrix "
                "implicit, or raise Kronecker.dense_cell_budget if you really "
                "want the dense array."
            )

    def dense(self) -> np.ndarray:
        cells = self.factors[0].shape[0] * self.factors[0].shape[1]
        self._check_dense_budget(cells)
        out = self.factors[0].dense()
        for f in self.factors[1:]:
            cells *= f.shape[0] * f.shape[1]
            self._check_dense_budget(cells)
            out = np.kron(out, f.dense())
        return out

    def sparse(self) -> sp.csr_matrix:
        out = self.factors[0].sparse()
        for f in self.factors[1:]:
            out = sp.kron(out, f.sparse(), format="csr")
        return out.tocsr()

    def gram_dense(self, block_size: int | None = None) -> np.ndarray:
        # (A ⊗ B).T (A ⊗ B) = (A.T A) ⊗ (B.T B): compose the factor Grams
        # instead of driving n basis columns through the tensor contraction.
        out = self.factors[0].gram_dense()
        for f in self.factors[1:]:
            out = np.kron(out, f.gram_dense())
        return out

    def _build_strategy_key(self) -> tuple:
        return ("Kronecker", tuple(f.strategy_key() for f in self.factors))
