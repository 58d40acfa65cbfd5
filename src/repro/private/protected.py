"""Client-side handles to protected data sources.

A :class:`ProtectedDataSource` is what plans manipulate: it names a data
source inside the protected kernel without exposing its contents.  Its methods
mirror the kernel's privileged operators and return new handles (for
transformations) or noisy answers (for measurements).

The idiomatic entry point is::

    source = protect(relation, epsilon_total=1.0, seed=0)
    vector = source.where({"gender": 0}).select(["salary"]).vectorize()
    noisy = vector.vector_laplace(Identity(vector.domain_size), epsilon=0.5)
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..dataset.relation import Relation
from ..matrix import LinearQueryMatrix, ReductionMatrix
from .kernel import ProtectedKernel


class ProtectedDataSource:
    """An opaque reference to a table or vector held by the protected kernel."""

    def __init__(self, kernel: ProtectedKernel, name: str):
        self._kernel = kernel
        self._name = name

    # ------------------------------------------------------------------
    # Public metadata.
    # ------------------------------------------------------------------
    @property
    def kernel(self) -> ProtectedKernel:
        return self._kernel

    @property
    def domain_size(self) -> int:
        return self._kernel.domain_size(self._name)

    def budget_consumed(self) -> float:
        return self._kernel.budget_consumed()

    def budget_remaining(self) -> float:
        return self._kernel.budget_remaining()

    # ------------------------------------------------------------------
    # Private operators (transformations) — return new handles.
    # ------------------------------------------------------------------
    def where(self, predicate) -> "ProtectedDataSource":
        """Filter records of a table source (1-stable)."""
        return ProtectedDataSource(self._kernel, self._kernel.transform_where(self._name, predicate))

    def select(self, attributes: Sequence[str]) -> "ProtectedDataSource":
        """Project a table source onto a subset of attributes (1-stable)."""
        return ProtectedDataSource(
            self._kernel, self._kernel.transform_select(self._name, attributes)
        )

    def vectorize(self) -> "ProtectedDataSource":
        """T-Vectorize a table source into a histogram vector (1-stable)."""
        return ProtectedDataSource(self._kernel, self._kernel.transform_vectorize(self._name))

    def group_by(self, attribute: str) -> dict[int, "ProtectedDataSource"]:
        """GroupBy an attribute of a table source (2-stable)."""
        return {
            value: ProtectedDataSource(self._kernel, name)
            for value, name in self._kernel.transform_group_by(self._name, attribute).items()
        }

    def reduce_by_partition(self, partition: ReductionMatrix) -> "ProtectedDataSource":
        """V-ReduceByPartition a vector source (1-stable)."""
        return ProtectedDataSource(
            self._kernel, self._kernel.transform_reduce_by_partition(self._name, partition)
        )

    def linear_transform(self, matrix: LinearQueryMatrix) -> "ProtectedDataSource":
        """Generic linear transformation of a vector source (stability = ||M||_1)."""
        return ProtectedDataSource(self._kernel, self._kernel.transform_linear(self._name, matrix))

    def split_by_partition(self, partition: ReductionMatrix) -> list["ProtectedDataSource"]:
        """V-SplitByPartition a vector source into per-group handles (parallel composition)."""
        _, children = self._kernel.transform_split_by_partition(self._name, partition)
        return [ProtectedDataSource(self._kernel, child) for child in children]

    def split_by_attribute(self, attribute: str) -> dict[int, "ProtectedDataSource"]:
        """SplitByPartition a table source by an attribute value (parallel composition)."""
        _, children = self._kernel.transform_table_split(self._name, attribute)
        return {
            value: ProtectedDataSource(self._kernel, name) for value, name in children.items()
        }

    # ------------------------------------------------------------------
    # Private -> Public operators (measurements) — return noisy values.
    # ------------------------------------------------------------------
    def vector_laplace(self, queries: LinearQueryMatrix, epsilon: float) -> np.ndarray:
        """Noisy answers to a set of linear queries on a vector source."""
        return self._kernel.measure_vector_laplace(self._name, queries, epsilon)

    def vector_gaussian(self, queries: LinearQueryMatrix, epsilon: float) -> np.ndarray:
        """Gaussian-noised answers calibrated to the queries' L2 sensitivity.

        Charged through the kernel's accountant, at its ``default_delta``;
        unavailable under pure ε-DP accounting.
        """
        return self._kernel.measure_vector_gaussian(self._name, queries, epsilon)

    def noisy_count(self, epsilon: float) -> float:
        """Noisy cardinality of a table source."""
        return self._kernel.measure_noisy_count(self._name, epsilon)

    def exponential_mechanism(
        self,
        scores: Callable[[np.ndarray], np.ndarray],
        num_candidates: int,
        epsilon: float,
        score_sensitivity: float,
    ) -> int:
        """Select a candidate index via the exponential mechanism."""
        return self._kernel.select_exponential_mechanism(
            self._name, scores, num_candidates, epsilon, score_sensitivity
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProtectedDataSource({self._name!r}, kind={self._kernel.source_kind(self._name)!r})"


def protect(
    table: Relation,
    epsilon_total: float | None = None,
    seed: int | None = None,
    accountant=None,
) -> ProtectedDataSource:
    """Create a protected kernel around ``table`` and return the root handle.

    ``accountant`` swaps the privacy calculus (see :mod:`repro.accounting`);
    by default the kernel runs the paper's pure ε-DP semantics over
    ``epsilon_total``.
    """
    kernel = ProtectedKernel(table, epsilon_total, seed=seed, accountant=accountant)
    return ProtectedDataSource(kernel, "root")
