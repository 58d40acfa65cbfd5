"""Marginal workloads as Kronecker products (Example 7.5).

Any marginal over a multi-dimensional domain is a Kronecker product whose
factors are ``Identity`` for attributes kept and ``Total`` for attributes
summed out.  A collection of marginals is the union (vertical stack) of such
products.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .base import LinearQueryMatrix
from .combinators import Kronecker, VStack
from .core import Identity, Total


def marginal(domain: Sequence[int], keep: Iterable[int]) -> LinearQueryMatrix:
    """The marginal over the attributes in ``keep``.

    Parameters
    ----------
    domain:
        Sizes of each attribute's domain, in axis order.
    keep:
        Indices of the attributes retained in the marginal; all other
        attributes are aggregated with a ``Total`` factor.
    """
    keep_set = set(int(k) for k in keep)
    for k in keep_set:
        if not 0 <= k < len(domain):
            raise ValueError(f"attribute index {k} outside domain of {len(domain)} attributes")
    factors: list[LinearQueryMatrix] = []
    for axis, size in enumerate(domain):
        if axis in keep_set:
            factors.append(Identity(size))
        else:
            factors.append(Total(size))
    return Kronecker(factors)


def all_kway_marginals(domain: Sequence[int], k: int) -> LinearQueryMatrix:
    """Union of all ``k``-way marginals of the domain."""
    if not 0 <= k <= len(domain):
        raise ValueError("k must be between 0 and the number of attributes")
    parts = [marginal(domain, keep) for keep in combinations(range(len(domain)), k)]
    if not parts:
        raise ValueError("no marginals generated")
    if len(parts) == 1:
        return parts[0]
    return VStack(parts)

