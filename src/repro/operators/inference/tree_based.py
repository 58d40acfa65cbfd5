"""Tree-based least squares (Hay et al. 2010), for any tree of sums.

This is the specialised inference the paper compares against in Fig. 5,
written for every tree a strategy declares through
:meth:`~repro.matrix.base.LinearQueryMatrix.tree_parents`: any size, any
branching factor, complete or not (H2, HB, Greedy-H without a workload and
DAWA's stage two all measure a
:class:`~repro.matrix.ranges.HierarchicalQueries`).  Every row is one node:
the first ``n`` rows are the leaves (one per cell), every other row is the
sum of its children, and each row is measured once with equal noise.  Two
passes over the tree give the least-squares estimate exactly, with no
factorisation:

* **bottom-up** — a leaf has ``a = 1`` and ``m = y_i``; a node ``v`` with
  children ``C`` has ``s = Σ_c 1/a_c``, ``a_v = 1 + 1/s`` and
  ``m_v = (y_v + Σ_c m_c / s) / a_v``: ``m_v`` is the least-squares count
  of ``v`` from its subtree's rows alone, and ``1/a_v`` its variance;
* **top-down** — ``t_root = m_root``, and each child gets
  ``t_c = m_c + (t_v - Σ_c m_c) / (a_c · s)``, its parent's mismatch shared
  in proportion to the children's variances; ``x̂_i = t_i`` at the leaves.

The ``a`` and ``s`` are the tree's alone, so :class:`TreePasses` computes
them once, with the tree laid out breadth-first; each level then costs one
sum over sibling groups going up and one gather from the parents coming
down.
"""

from __future__ import annotations

import numpy as np


class TreePasses:
    """The two passes over one tree, precomputed from its parent array.

    ``parents[r]`` is the parent row of row ``r`` (-1 at the root); rows
    ``0..n-1`` are the leaves.  Building takes one stable sort of the
    parents and a few numpy calls per level of the tree; it needs no CSR
    form.
    """

    def __init__(self, parents: np.ndarray, n: int):
        parents = np.asarray(parents, dtype=np.intp)
        m = parents.size
        children = np.bincount(parents + 1, minlength=m + 1)[1:]
        (roots,) = np.nonzero(parents < 0)
        if roots.size != 1 or np.any(children[:n]) or not np.all(children[n:]):
            raise ValueError("a tree has one root, its first n rows as leaves and no other leaf")
        # Breadth-first layout: each level's nodes are contiguous, each
        # parent's children too, in the order of their parents.  A level is
        # its children's slice, where each sibling group starts in it, the
        # positions of the nodes above that have children, and which of
        # those is each child's parent.
        by_parent = np.argsort(parents, kind="stable")[1:]
        first = np.cumsum(children) - children
        level = roots
        order, levels = [roots], []
        size = 1
        while True:
            counts = children[level]
            total = int(counts.sum())
            if not total:
                break
            offsets = np.cumsum(counts) - counts
            members = by_parent[np.repeat(first[level] - offsets, counts) + np.arange(total)]
            (inner,) = np.nonzero(counts)
            group = np.repeat(np.arange(inner.size), counts[inner])
            above = inner + size - level.size
            levels.append((slice(size, size + total), offsets[inner], above, group))
            order.append(members)
            size += total
            level = members
        if size != m:
            raise ValueError("the parent array does not describe one tree")
        self._order = np.concatenate(order)
        position = np.empty(m, dtype=np.intp)
        position[self._order] = np.arange(m)
        self._leaves = position[:n]
        self.m = m

        # 1/a (a leaf's is 1) and s bottom-up, and each level's
        # coefficients: m_v = y_v / a_v + (Σ_c m_c) / (a_v s) going up, and
        # each child's share 1 / (a_c s) of its parent's mismatch coming down.
        inv_a = np.ones(m)
        self._up, self._down = [], []
        for sl, starts, inner, group in reversed(levels):
            s = np.add.reduceat(inv_a[sl], starts)
            inv_a[inner] = s / (s + 1.0)
            self._up.append((sl, starts, inner, inv_a[inner], inv_a[inner] / s))
            self._down.insert(0, (sl, inner, group, inv_a[sl] / s[group]))

    def estimate(self, answers: np.ndarray) -> np.ndarray:
        """The least-squares ``x̂`` of ``answers`` (one per row, in row
        order); a stack of columns gives a stack of estimates."""
        return self._passes(np.asarray(answers, dtype=np.float64)[self._order])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """``(M.T M)^-1 rhs``: the estimate of ``[rhs; 0]``, since the
        leaves' identity rows come first."""
        rhs = np.asarray(rhs, dtype=np.float64)
        answers = np.zeros((self.m,) + rhs.shape[1:])
        answers[self._leaves] = rhs
        return self._passes(answers)

    def _passes(self, y: np.ndarray) -> np.ndarray:
        """Both passes, in place, over answers in breadth-first order: ``y``
        becomes ``m`` going up, then ``t`` coming down."""
        column = (slice(None),) + (None,) * (y.ndim - 1)
        sums = []  # Σ_c m_c of each level's parents, deepest level first
        for sl, starts, inner, own, children in self._up:
            total = np.add.reduceat(y[sl], starts)
            y[inner] = y[inner] * own[column] + total * children[column]
            sums.append(total)
        for (sl, inner, group, share), total in zip(self._down, reversed(sums)):
            y[sl] += (y[inner] - total)[group] * share[column]
        return y[self._leaves]
