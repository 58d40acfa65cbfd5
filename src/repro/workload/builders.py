"""Workload builders used throughout the paper's evaluation.

A workload is just a :class:`~repro.matrix.base.LinearQueryMatrix` whose rows
are the queries the analyst ultimately cares about.  The evaluation uses:

* Prefix (empirical CDF) workloads — Algorithm 1 and the census Prefix(Income)
  workload,
* RandomRange(k) — k uniformly random range queries (Table 4, Table 6),
* all range queries — error analysis of 1-D strategies,
* Identity and all 2-way marginals — census workloads (Table 5),
* the Naive Bayes workload — 2k+1 one-dimensional histograms (Sec. 9.3).
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from ..matrix import (
    Identity,
    Kronecker,
    LinearQueryMatrix,
    Prefix,
    RangeQueries,
    Total,
    VStack,
    all_kway_marginals,
    marginal,
)


def prefix_workload(n: int) -> LinearQueryMatrix:
    """All prefix sums over a 1-D domain (the empirical CDF workload)."""
    return Prefix(n)


def random_range_workload(
    n: int, num_queries: int, seed: int = 0, max_length: int | None = None
) -> LinearQueryMatrix:
    """``num_queries`` uniformly random range queries over a 1-D domain.

    ``max_length`` caps the range length (the paper's "small ranges" variant
    for Table 6 uses short ranges).
    """
    rng = np.random.default_rng(seed)
    intervals = []
    for _ in range(num_queries):
        if max_length is None:
            lo, hi = sorted(rng.integers(0, n, size=2).tolist())
        else:
            length = int(rng.integers(1, max_length + 1))
            lo = int(rng.integers(0, max(n - length, 0) + 1))
            hi = min(lo + length - 1, n - 1)
        intervals.append((lo, hi))
    return RangeQueries(n, intervals)


def identity_workload(domain: Sequence[int] | int) -> LinearQueryMatrix:
    """Counts of every cell of the (possibly multi-dimensional) domain."""
    if isinstance(domain, int):
        return Identity(domain)
    return Identity(int(np.prod(domain)))


def two_way_marginals_workload(domain: Sequence[int]) -> LinearQueryMatrix:
    """All 2-way marginals of a multi-dimensional domain (census workload b)."""
    return all_kway_marginals(domain, 2)


def census_prefix_income_workload(
    domain: Sequence[int], income_axis: int = 0
) -> LinearQueryMatrix:
    """The Prefix(Income) census workload (Sec. 9.2, workload c).

    Counting queries of the form ``income in (0, i_high]`` crossed with every
    combination of the other attributes *or* "any": per non-income attribute
    the factor is the union of its Identity (each specific value) and Total
    ("any"), and the income factor is the Prefix matrix.
    """
    factors: list[LinearQueryMatrix] = []
    for axis, size in enumerate(domain):
        if axis == income_axis:
            factors.append(Prefix(size))
        else:
            factors.append(VStack([Total(size), Identity(size)]))
    return Kronecker(factors)


def naive_bayes_workload(
    domain: Sequence[int], label_axis: int, predictor_axes: Sequence[int]
) -> LinearQueryMatrix:
    """The 2k+1 histograms needed to fit a Naive Bayes classifier (Sec. 9.3).

    One histogram on the label plus, for every predictor, the predictor-label
    joint histogram (equivalently the per-label-value conditional histograms).
    """
    parts: list[LinearQueryMatrix] = [marginal(domain, [label_axis])]
    for axis in predictor_axes:
        parts.append(marginal(domain, [label_axis, axis]))
    return VStack(parts)


def marginals_workload(domain: Sequence[int], groups: Sequence[Sequence[int]]) -> LinearQueryMatrix:
    """Union of the marginals over each listed attribute group."""
    parts = [marginal(domain, keep) for keep in groups]
    return parts[0] if len(parts) == 1 else VStack(parts)


# ----------------------------------------------------------------------------
# Named lookup + hashable cache keys (used by the service layer's
# ArtifactCache to reuse workload constructions across requests).
# ----------------------------------------------------------------------------

WORKLOAD_BUILDERS: dict[str, Callable[..., LinearQueryMatrix]] = {
    "prefix": prefix_workload,
    "random_range": random_range_workload,
    "identity": identity_workload,
    "two_way_marginals": two_way_marginals_workload,
    "census_prefix_income": census_prefix_income_workload,
    "naive_bayes": naive_bayes_workload,
    "marginals": marginals_workload,
}


def _freeze(value):
    """Canonical hashable form of a builder or plan parameter value.

    A matrix freezes to ``("matrix", strategy_key)``, its content: equal
    matrices give one request key (one release, one noise seed), and
    distinct ones distinct keys, since the key's repr seeds each request's
    noise and names its release in the journal.
    """
    if isinstance(value, dict):
        return tuple(sorted((key, _freeze(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, np.ndarray):
        return tuple(_freeze(item) for item in value.tolist())
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, LinearQueryMatrix):
        return ("matrix", value.strategy_key())
    try:
        hash(value)
    except TypeError:
        # A repr fallback would silently produce address-bearing, unstable
        # keys (cache misses + irreproducible seeds); fail loudly instead.
        raise TypeError(
            f"cache-key parameter of type {type(value).__name__} is not hashable; "
            "pass plain data (numbers, strings, lists/tuples/dicts thereof)"
        ) from None
    return value


def workload_cache_key(name: str, params: Mapping[str, object] | None = None) -> tuple:
    """Hashable key identifying a workload construction.

    Two calls with the same builder name and (recursively frozen) parameters
    produce equal keys, so caches can serve the constructed matrix without
    rebuilding it.
    """
    if name not in WORKLOAD_BUILDERS:
        raise KeyError(f"unknown workload {name!r}; available: {sorted(WORKLOAD_BUILDERS)}")
    return ("workload", name, _freeze(dict(params or {})))


def build_workload(name: str, params: Mapping[str, object] | None = None) -> LinearQueryMatrix:
    """Construct a workload by registry name with keyword parameters."""
    if name not in WORKLOAD_BUILDERS:
        raise KeyError(f"unknown workload {name!r}; available: {sorted(WORKLOAD_BUILDERS)}")
    return WORKLOAD_BUILDERS[name](**dict(params or {}))
