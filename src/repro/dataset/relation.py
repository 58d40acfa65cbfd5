"""In-memory relations and the table transformations of Sec. 5.1.

A :class:`Relation` stores records as a 2-D integer ndarray whose columns are
the bin indices of the schema's attributes.  The table transformation
operators mirror PINQ/EKTELO and carry a *stability* constant:

==================  =========
Transformation      Stability
==================  =========
Where (filter)      1
Select (project)    1
SplitByPartition    1
GroupBy             2
Vectorize           1
==================  =========

Adding or removing one record from the input changes the output of a c-stable
transformation by at most c records (symmetric difference for tables, L1
distance for vectors); the protected kernel multiplies budget requests by the
cumulative stability of the lineage (Sec. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .schema import Attribute, Schema

#: Stability constants of the supported table transformations.
STABILITY = {
    "where": 1,
    "select": 1,
    "split_by_partition": 1,
    "group_by": 2,
    "vectorize": 1,
}


@dataclass
class Relation:
    """A single-relation table of discretised records.

    Parameters
    ----------
    schema:
        The relation's :class:`~repro.dataset.schema.Schema`.
    records:
        Integer ndarray of shape ``(num_records, num_attributes)``; entry
        ``[i, j]`` is the bin index of record ``i`` on attribute ``j``.
    """

    schema: Schema
    records: np.ndarray

    def __post_init__(self):
        records = np.asarray(self.records, dtype=np.int64)
        if records.ndim == 1 and len(self.schema) == 1:
            records = records.reshape(-1, 1)
        if records.ndim != 2 or records.shape[1] != len(self.schema):
            raise ValueError(
                f"records of shape {records.shape} do not match schema with "
                f"{len(self.schema)} attributes"
            )
        for j, attr in enumerate(self.schema):
            if records.size and (records[:, j].min() < 0 or records[:, j].max() >= attr.size):
                raise ValueError(f"records contain out-of-domain values for {attr.name!r}")
        self.records = records

    # ------------------------------------------------------------------
    # Basic accessors.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.records.shape[0])

    def column(self, name: str) -> np.ndarray:
        """The bin indices of attribute ``name`` for every record."""
        return self.records[:, self.schema.index_of(name)]

    @property
    def domain(self) -> tuple[int, ...]:
        return self.schema.domain

    @property
    def domain_size(self) -> int:
        return self.schema.domain_size

    # ------------------------------------------------------------------
    # Table transformations (each returns a new Relation).
    # ------------------------------------------------------------------
    def where(self, predicate: Callable[[np.ndarray], np.ndarray] | Mapping[str, object]) -> "Relation":
        """Filter records (1-stable).

        ``predicate`` is either a callable taking the record array and
        returning a boolean mask, or a mapping from attribute name to an
        allowed value / iterable of values / ``(lo, hi)`` inclusive range
        (ranges are given as a 2-tuple of ints).
        """
        if callable(predicate):
            mask = np.asarray(predicate(self.records), dtype=bool)
        else:
            mask = np.ones(len(self), dtype=bool)
            for name, allowed in predicate.items():
                col = self.column(name)
                if isinstance(allowed, tuple) and len(allowed) == 2:
                    lo, hi = allowed
                    mask &= (col >= lo) & (col <= hi)
                elif isinstance(allowed, Iterable) and not isinstance(allowed, (str, bytes)):
                    mask &= np.isin(col, np.asarray(list(allowed)))
                else:
                    mask &= col == allowed
        return Relation(self.schema, self.records[mask])

    def select(self, names: Sequence[str]) -> "Relation":
        """Project onto the named attributes (1-stable)."""
        idx = [self.schema.index_of(name) for name in names]
        return Relation(self.schema.project(names), self.records[:, idx])

    def group_by(self, name: str) -> dict[int, "Relation"]:
        """Group records by an attribute value (2-stable), keyed by bin index."""
        col = self.column(name)
        return {
            int(value): Relation(self.schema, self.records[col == value])
            for value in np.unique(col)
        }

    # ------------------------------------------------------------------
    # Vectorisation.
    # ------------------------------------------------------------------
    def vectorize(self) -> np.ndarray:
        """T-Vectorize: the histogram over the full cross-product domain (1-stable).

        Cell ordering is row-major (C order) over the schema's attributes, the
        same convention used by :class:`repro.matrix.Kronecker`.
        """
        domain = self.domain
        if len(self) == 0:
            return np.zeros(self.domain_size, dtype=np.float64)
        flat = np.ravel_multi_index(tuple(self.records[:, j] for j in range(len(domain))), domain)
        return np.bincount(flat, minlength=self.domain_size).astype(np.float64)

    def projection_vector(self, names: Sequence[str]) -> np.ndarray:
        """Histogram of the projection onto ``names`` (select + vectorize)."""
        return self.select(names).vectorize()

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, schema: Schema, columns: Mapping[str, np.ndarray]) -> "Relation":
        """Build a relation from per-attribute bin-index columns."""
        arrays = [np.asarray(columns[a.name], dtype=np.int64) for a in schema]
        length = len(arrays[0])
        for arr in arrays:
            if len(arr) != length:
                raise ValueError("all columns must have the same length")
        return cls(schema, np.column_stack(arrays))

    @classmethod
    def from_histogram(cls, schema: Schema, histogram: np.ndarray, rng=None) -> "Relation":
        """Materialise records whose vectorisation equals ``histogram`` (integer counts)."""
        histogram = np.asarray(histogram)
        if histogram.size != schema.domain_size:
            raise ValueError("histogram size does not match the schema's domain")
        counts = np.round(histogram).astype(np.int64)
        if np.any(counts < 0):
            raise ValueError("histogram must be non-negative")
        flat_idx = np.repeat(np.arange(counts.size), counts)
        coords = np.column_stack(np.unravel_index(flat_idx, schema.domain))
        return cls(schema, coords)
