"""Range-query and hierarchical matrix constructions (Sec. 7.5).

A 1-D range query ``[i, j]`` sums cells ``i..j`` and can be written as the
difference of two prefix queries.  A workload of ``m`` range queries is
therefore representable as ``Product(Sparse, Prefix)`` where the sparse factor
has at most two non-zero entries per row — giving O(m + n) matvec time versus
O(m n) for explicit representations (Example 7.4 of the paper).

Hierarchical matrices (H2, HB, quadtrees, grids) are special collections of
range queries; they are represented as ``Union(Identity, Product(Sparse,
Prefix))`` following the paper's recommendation.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse as sp

from .base import LinearQueryMatrix, _content_digest
from .combinators import Kronecker, Product, VStack
from .core import Identity, Prefix
from .dense import SparseMatrix


class RangeQueries(LinearQueryMatrix):
    """A workload of 1-D range queries stored implicitly as ``Sparse x Prefix``.

    Parameters
    ----------
    n:
        Domain size.
    intervals:
        Iterable of ``(lo, hi)`` pairs with ``0 <= lo <= hi < n``; each pair is
        the inclusive range ``[lo, hi]``.
    """

    def __init__(self, n: int, intervals: Iterable[tuple[int, int]]):
        self.n = int(n)
        bounds = np.array(list(intervals), dtype=np.int64)
        if not bounds.size:
            raise ValueError("RangeQueries requires at least one interval")
        if bounds.ndim != 2 or bounds.shape[1] != 2:
            raise ValueError("RangeQueries intervals must be (lo, hi) pairs")
        self._lo, self._hi = bounds[:, 0], bounds[:, 1]
        invalid = np.flatnonzero((self._lo < 0) | (self._lo > self._hi) | (self._hi >= self.n))
        if invalid.size:
            lo, hi = bounds[invalid[0]].tolist()
            raise ValueError(f"invalid range ({lo}, {hi}) for domain size {self.n}")
        self.intervals = list(zip(self._lo.tolist(), self._hi.tolist()))
        self.shape = (len(self.intervals), self.n)
        self._product = Product(self._difference_matrix(), Prefix(self.n))

    def _difference_matrix(self) -> SparseMatrix:
        """Sparse factor with +1 at column ``hi`` and -1 at column ``lo - 1``.

        Written in CSR form directly: each row holds its -1 (when ``lo > 0``)
        and then its +1, so column indices come out sorted.
        """
        inner = self._lo > 0
        indptr = np.concatenate([[0], np.cumsum(1 + inner)])
        starts = indptr[:-1][inner]
        indices = np.empty(indptr[-1], dtype=np.int64)
        indices[indptr[1:] - 1] = self._hi
        indices[starts] = self._lo[inner] - 1
        data = np.ones(indptr[-1])
        data[starts] = -1.0
        return SparseMatrix(sp.csr_matrix((data, indices, indptr), shape=self.shape))

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return self._product._matmat(B)

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self._product._rmatmat(B)

    def __abs__(self) -> LinearQueryMatrix:
        return self

    def square(self) -> LinearQueryMatrix:
        return self

    def sensitivity(self) -> float:
        # Column j is covered by every interval containing j.
        starts = np.bincount(self._lo, minlength=self.n + 1)
        ends = np.bincount(self._hi + 1, minlength=self.n + 1)
        return float(np.max(np.cumsum(starts - ends)[: self.n]))

    def dense(self) -> np.ndarray:
        return self.rows(np.arange(self.shape[0]))

    def sparse(self) -> sp.csr_matrix:
        # Built structurally: row i holds ones at columns lo_i..hi_i, so the
        # CSR arrays are written directly without an (m, n) dense intermediate.
        lengths = self._hi - self._lo + 1
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        indices = np.arange(indptr[-1]) + np.repeat(self._lo - indptr[:-1], lengths)
        return sp.csr_matrix((np.ones(indptr[-1]), indices, indptr), shape=self.shape)

    def row(self, i: int) -> np.ndarray:
        (i,) = self._row_indices(i)
        lo, hi = self.intervals[i]
        r = np.zeros(self.n)
        r[lo : hi + 1] = 1.0
        return r

    def rows(self, indices) -> np.ndarray:
        # 0/1 indicator rows are written directly from the interval endpoints:
        # a +1/-1 boundary "paintbrush" cumsummed along each row is far cheaper
        # than routing basis vectors through Prefix.
        indices = self._row_indices(indices)
        bounds = np.zeros((indices.size, self.n + 1))
        out_rows = np.arange(indices.size)
        bounds[out_rows, self._lo[indices]] = 1.0
        bounds[out_rows, self._hi[indices] + 1] = -1.0
        return np.cumsum(bounds[:, :-1], axis=1)

    def _build_strategy_key(self) -> tuple:
        return ("RangeQueries", self.n, _content_digest(np.stack([self._lo, self._hi], axis=1)))


def hierarchical_intervals(n: int, branching: int = 2) -> list[tuple[int, int]]:
    """Intervals of a complete ``branching``-ary hierarchy over ``[0, n)``.

    The root covers the whole domain; each node is recursively split into
    ``branching`` nearly-equal children; unit-length leaves are excluded (they
    are supplied by the Identity part of the hierarchical matrix).

    The order is the measurement row order (so it decides which noise draw
    each row gets): a depth-first walk that visits the last child first.
    The hierarchy is a pure function of ``(n, branching)``, so it is built
    once per pair (in a bounded memo) and each call returns a fresh list.
    """
    if n <= 0:
        raise ValueError("domain size must be positive")
    if branching < 2:
        raise ValueError("branching factor must be at least 2")
    return list(_hierarchy(int(n), int(branching))[0])


@functools.lru_cache(maxsize=64)
def _hierarchy(n: int, branching: int) -> tuple[tuple[tuple[int, int], ...], np.ndarray]:
    """The intervals of :func:`hierarchical_intervals` and the parent row of
    every row of ``HierarchicalQueries(n, branching)`` (-1 at the root)."""
    intervals: list[tuple[int, int]] = []
    parents = [-1] * n  # rows 0..n-1 are the cells; each interval appends its own
    frontier = [(0, n - 1, -1)]
    while frontier:
        lo, hi, parent = frontier.pop()
        if hi == lo:
            parents[lo] = parent
            continue
        row = n + len(intervals)
        intervals.append((lo, hi))
        parents.append(parent)
        # Split [lo, hi] into `branching` nearly-equal children.
        edges = np.linspace(lo, hi + 1, branching + 1).astype(int).tolist()
        for k in range(branching):
            c_lo, c_hi = edges[k], edges[k + 1] - 1
            if c_hi >= c_lo:
                frontier.append((c_lo, c_hi, row))
    tree = np.array(parents, dtype=np.intp)
    tree.flags.writeable = False  # shared by every caller of the memo
    return tuple(intervals), tree


class HierarchicalQueries(LinearQueryMatrix):
    """Hierarchical measurement matrix ``Union(Identity, RangeQueries(tree))``.

    This is the strategy used by the H2 (binary) and HB (optimised branching
    factor) algorithms.
    """

    def __init__(self, n: int, branching: int = 2):
        self.n = int(n)
        self.branching = int(branching)
        intervals = hierarchical_intervals(self.n, self.branching)
        parts: list[LinearQueryMatrix] = [Identity(self.n)]
        if intervals:
            parts.append(RangeQueries(self.n, intervals))
        self._union = VStack(parts)
        self.shape = self._union.shape

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return self._union._matmat(B)

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self._union._rmatmat(B)

    def __abs__(self) -> LinearQueryMatrix:
        return self

    def square(self) -> LinearQueryMatrix:
        return self

    def dense(self) -> np.ndarray:
        return self._union.dense()

    def sparse(self) -> sp.csr_matrix:
        return self._union.sparse()

    def row(self, i: int) -> np.ndarray:
        return self._union.row(i)

    def tree_parents(self) -> np.ndarray:
        # Rows 0..n-1 are the cells (the Identity part), then the intervals,
        # each the sum of its children.
        return _hierarchy(self.n, self.branching)[1]

    def _build_strategy_key(self) -> tuple:
        return ("Hierarchical", self.n, self.branching)


def optimal_branching_factor(n: int) -> int:
    """HB's heuristic: choose the branching factor minimising tree height cost.

    Qardaji et al. pick the branching factor ``b`` minimising the variance of
    answering range queries from a ``b``-ary hierarchy, approximately the value
    satisfying ``(b - 1) * log_b(n)`` minimal.  We search b in [2, 16].
    """
    n = max(int(n), 2)
    best_b, best_cost = 2, float("inf")
    for b in range(2, 17):
        height = int(np.ceil(np.log(n) / np.log(b)))
        cost = (b - 1) * height**3
        if cost < best_cost:
            best_b, best_cost = b, cost
    return best_b


class RangeQueries2D(LinearQueryMatrix):
    """Axis-aligned rectangle queries over a 2-D domain, stored implicitly.

    Each rectangle is the Kronecker-style conjunction of a row range and a
    column range, represented as ``Sparse x Kron(Prefix, Prefix)``.
    """

    def __init__(self, rows: int, cols: int, rects: Sequence[tuple[int, int, int, int]]):
        self.grid_rows = int(rows)
        self.grid_cols = int(cols)
        self.rects = [tuple(int(v) for v in r) for r in rects]
        if not self.rects:
            raise ValueError("RangeQueries2D requires at least one rectangle")
        for r_lo, r_hi, c_lo, c_hi in self.rects:
            if not (0 <= r_lo <= r_hi < self.grid_rows and 0 <= c_lo <= c_hi < self.grid_cols):
                raise ValueError("rectangle outside the domain")
        n = self.grid_rows * self.grid_cols
        self.shape = (len(self.rects), n)
        self._product = Product(
            self._corner_matrix(), Kronecker([Prefix(self.grid_rows), Prefix(self.grid_cols)])
        )

    def _corner_matrix(self) -> SparseMatrix:
        """2-D inclusion-exclusion corners: four +/-1 entries per rectangle."""
        rows_idx, cols_idx, vals = [], [], []

        def add(i: int, r: int, c: int, val: float) -> None:
            rows_idx.append(i)
            cols_idx.append(r * self.grid_cols + c)
            vals.append(val)

        for i, (r_lo, r_hi, c_lo, c_hi) in enumerate(self.rects):
            add(i, r_hi, c_hi, 1.0)
            if r_lo > 0:
                add(i, r_lo - 1, c_hi, -1.0)
            if c_lo > 0:
                add(i, r_hi, c_lo - 1, -1.0)
            if r_lo > 0 and c_lo > 0:
                add(i, r_lo - 1, c_lo - 1, 1.0)
        mat = sp.csr_matrix((vals, (rows_idx, cols_idx)), shape=self.shape)
        return SparseMatrix(mat)

    def _matmat(self, B: np.ndarray) -> np.ndarray:
        return self._product._matmat(B)

    def _rmatmat(self, B: np.ndarray) -> np.ndarray:
        return self._product._rmatmat(B)

    def __abs__(self) -> LinearQueryMatrix:
        return self

    def square(self) -> LinearQueryMatrix:
        return self

    def dense(self) -> np.ndarray:
        return self.rows(np.arange(self.shape[0]))

    def sparse(self) -> sp.csr_matrix:
        # Rectangle-indicator rows written from the corner coordinates: entry
        # t of row i is cell (r_lo + t // width, c_lo + t % width), already in
        # ascending column order, so no dense scratch and no sort.
        rects = np.asarray(self.rects, dtype=np.int64)
        widths = rects[:, 3] - rects[:, 2] + 1
        sizes = (rects[:, 1] - rects[:, 0] + 1) * widths
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        owner = np.repeat(np.arange(len(rects)), sizes)
        offset = np.arange(indptr[-1]) - indptr[owner]
        cells = (rects[owner, 0] + offset // widths[owner]) * self.grid_cols
        cells += rects[owner, 2] + offset % widths[owner]
        return sp.csr_matrix((np.ones(cells.size), cells, indptr), shape=self.shape)

    def row(self, i: int) -> np.ndarray:
        (i,) = self._row_indices(i)
        r_lo, r_hi, c_lo, c_hi = self.rects[i]
        block = np.zeros((self.grid_rows, self.grid_cols))
        block[r_lo : r_hi + 1, c_lo : c_hi + 1] = 1.0
        return block.ravel()

    def rows(self, indices) -> np.ndarray:
        # Rectangle-indicator rows written directly from the corner coordinates.
        indices = self._row_indices(indices)
        out = np.zeros((indices.size, self.grid_rows, self.grid_cols))
        for r, i in enumerate(indices):
            r_lo, r_hi, c_lo, c_hi = self.rects[i]
            out[r, r_lo : r_hi + 1, c_lo : c_hi + 1] = 1.0
        return out.reshape(indices.size, -1)

    def _build_strategy_key(self) -> tuple:
        return (
            "RangeQueries2D",
            self.grid_rows,
            self.grid_cols,
            _content_digest(np.asarray(self.rects)),
        )


def quadtree_rects(rows: int, cols: int, min_size: int = 1) -> list[tuple[int, int, int, int]]:
    """Rectangles of a quadtree decomposition of a 2-D grid.

    The root covers the whole grid; every node is split into four quadrants
    until blocks reach ``min_size`` in both dimensions.
    """
    rects: list[tuple[int, int, int, int]] = []
    frontier = [(0, rows - 1, 0, cols - 1)]
    while frontier:
        r_lo, r_hi, c_lo, c_hi = frontier.pop()
        rects.append((r_lo, r_hi, c_lo, c_hi))
        height = r_hi - r_lo + 1
        width = c_hi - c_lo + 1
        if height <= min_size and width <= min_size:
            continue
        r_mid = r_lo + height // 2
        c_mid = c_lo + width // 2
        children = []
        if height > min_size and width > min_size:
            children = [
                (r_lo, r_mid - 1, c_lo, c_mid - 1),
                (r_lo, r_mid - 1, c_mid, c_hi),
                (r_mid, r_hi, c_lo, c_mid - 1),
                (r_mid, r_hi, c_mid, c_hi),
            ]
        elif height > min_size:
            children = [(r_lo, r_mid - 1, c_lo, c_hi), (r_mid, r_hi, c_lo, c_hi)]
        elif width > min_size:
            children = [(r_lo, r_hi, c_lo, c_mid - 1), (r_lo, r_hi, c_mid, c_hi)]
        for child in children:
            if child[0] <= child[1] and child[2] <= child[3]:
                frontier.append(child)
    return rects
