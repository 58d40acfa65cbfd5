"""Tree-based least squares for hierarchical measurements (Hay et al. 2010).

This is the *specialised* inference algorithm the paper compares against in
Fig. 5 ("Tree-based"): for measurements forming a complete ``b``-ary hierarchy
over the domain (every internal node measured once, all with equal noise), the
least-squares solution can be computed in two linear passes over the tree —
a bottom-up pass that combines each node's own measurement with the sum of its
children, and a top-down pass that redistributes the mismatch between a parent
and the sum of its children.

It equals ordinary least squares on the hierarchical measurement matrix,
but only for that special structure: a complete tree, ``n`` a power of
``b``.  It refuses any other domain size, where its weights would not give
the least-squares answer.  That restriction is precisely the limitation
EKTELO's generic iterative inference removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .least_squares import InferenceResult


@dataclass
class _TreeNode:
    lo: int
    hi: int  # inclusive
    noisy: float = 0.0
    weighted: float = 0.0
    children: list["_TreeNode"] = field(default_factory=list)


def _build_tree(lo: int, hi: int, branching: int) -> _TreeNode:
    node = _TreeNode(lo, hi)
    length = hi - lo + 1
    if length <= 1:
        return node
    edges = np.linspace(lo, hi + 1, branching + 1).astype(int)
    for k in range(branching):
        c_lo, c_hi = edges[k], edges[k + 1] - 1
        if c_hi >= c_lo:
            node.children.append(_build_tree(c_lo, c_hi, branching))
    return node


def hierarchical_measurements(x: np.ndarray, branching: int = 2) -> list[tuple[int, int]]:
    """Intervals measured by the tree (root included, leaves included)."""
    if branching < 2:
        raise ValueError(f"a hierarchy needs a branching factor of at least 2, got {branching}")
    intervals: list[tuple[int, int]] = []

    def visit(node: _TreeNode) -> None:
        intervals.append((node.lo, node.hi))
        for child in node.children:
            visit(child)

    visit(_build_tree(0, len(x) - 1, branching))
    return intervals


def tree_based_least_squares(
    noisy_by_interval: dict[tuple[int, int], float],
    n: int,
    branching: int = 2,
) -> InferenceResult:
    """Consistency-enforcing inference for a complete hierarchy of noisy counts.

    Parameters
    ----------
    noisy_by_interval:
        Mapping from ``(lo, hi)`` inclusive intervals of the hierarchy to their
        noisy counts.  Every node of the complete ``branching``-ary hierarchy
        over ``[0, n)`` must be present.
    n:
        Domain size, a power of ``branching``.
    branching:
        Branching factor of the hierarchy.
    """
    if branching < 2 or n < 1 or branching ** round(math.log(n, branching)) != n:
        raise ValueError(
            f"tree-based least squares needs a complete tree: n={n} is not a "
            f"power of the branching factor {branching}"
        )
    root = _build_tree(0, n - 1, branching)

    # Bottom-up: weighted combination of own measurement and children's sums.
    def upward(node: _TreeNode) -> tuple[float, int]:
        key = (node.lo, node.hi)
        if key not in noisy_by_interval:
            raise KeyError(f"missing measurement for interval {key}")
        own = noisy_by_interval[key]
        if not node.children:
            node.weighted = own
            return node.weighted, 1
        child_sum = 0.0
        for child in node.children:
            value, child_height = upward(child)
            child_sum += value
        height = child_height + 1  # the node's own; a leaf's is 1
        b = branching
        # Hay et al. weights: alpha = (b^h - b^(h-1)) / (b^h - 1) for height h.
        alpha = (b**height - b ** (height - 1)) / (b**height - 1)
        node.weighted = alpha * own + (1 - alpha) * child_sum
        return node.weighted, height

    upward(root)

    # Top-down: redistribute the parent/children mismatch equally.
    x_hat = np.zeros(n)

    def downward(node: _TreeNode, adjusted: float) -> None:
        if not node.children:
            length = node.hi - node.lo + 1
            x_hat[node.lo : node.hi + 1] = adjusted / length
            return
        child_sum = sum(child.weighted for child in node.children)
        correction = (adjusted - child_sum) / len(node.children)
        for child in node.children:
            downward(child, child.weighted + correction)

    downward(root, root.weighted)
    return InferenceResult(x_hat, iterations=1, residual_norm=0.0)
