"""Structural (data-independent) partition selection operators.

These Public operators partition the vectorised domain by its *structure*
rather than by the data:

* :func:`stripe_partition` — one group per combination of the non-stripe
  attributes, so each group is a 1-D "stripe" along the stripe attribute
  (used by the HB-Striped and DAWA-Striped census plans, Sec. 9.2);
* :func:`grid_partition` — rectangular blocks of a 2-D domain, the ``PU``
  partition of AdaptiveGrid's Fig. 2 signature (the AdaptiveGrid plan itself
  partitions by its level-1 rectangles directly);
* :func:`marginal_partition` — groups cells by their value on a subset of
  attributes, reducing the full-domain vector to a marginal vector (used by
  the Naive Bayes SelectLS plan, Sec. 9.3).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...matrix import ReductionMatrix


def stripe_partition(domain: Sequence[int], stripe_axis: int) -> ReductionMatrix:
    """Partition a multi-dimensional domain into stripes along ``stripe_axis``.

    Each group fixes the values of every attribute except ``stripe_axis``;
    splitting by this partition yields one 1-D vector (of length
    ``domain[stripe_axis]``) per combination of the other attributes.
    """
    domain = tuple(int(d) for d in domain)
    if not 0 <= stripe_axis < len(domain):
        raise ValueError("stripe_axis outside the domain")
    indices = np.indices(domain)
    other_axes = [a for a in range(len(domain)) if a != stripe_axis]
    if other_axes:
        other_sizes = [domain[a] for a in other_axes]
        group = np.ravel_multi_index(
            tuple(indices[a] for a in other_axes), tuple(other_sizes)
        )
    else:
        group = np.zeros(domain, dtype=int)
    return ReductionMatrix(group.ravel())


def grid_partition(rows: int, cols: int, cell_rows: int, cell_cols: int) -> ReductionMatrix:
    """Partition a 2-D domain into rectangular blocks (row-major group order)."""
    if cell_rows <= 0 or cell_cols <= 0:
        raise ValueError("block sizes must be positive")
    r = np.arange(rows)[:, None] // cell_rows
    c = np.arange(cols)[None, :] // cell_cols
    blocks_per_row = int(np.ceil(cols / cell_cols))
    group = r * blocks_per_row + c
    return ReductionMatrix(group.ravel())


def marginal_partition(domain: Sequence[int], keep: Sequence[int]) -> ReductionMatrix:
    """Partition the full domain by the value of the kept attributes.

    Reducing by this partition turns the full-domain vector into the marginal
    vector over ``keep`` (in the kept attributes' axis order).
    """
    domain = tuple(int(d) for d in domain)
    keep = [int(k) for k in keep]
    for k in keep:
        if not 0 <= k < len(domain):
            raise ValueError("kept attribute outside the domain")
    indices = np.indices(domain)
    if keep:
        group = np.ravel_multi_index(
            tuple(indices[k] for k in keep), tuple(domain[k] for k in keep)
        )
    else:
        group = np.zeros(domain, dtype=int)
    return ReductionMatrix(group.ravel())
