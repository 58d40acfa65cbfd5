"""Schemas of single-relation tables with discretised attributes (Sec. 3).

EKTELO's input is a database instance of a single-relation schema
``T(A_1, ..., A_l)`` where every attribute is discrete (or discretised).  The
vector representation ``x`` of the table has one cell per element of the
cross-product of the attribute domains; its length is the product of the
per-attribute domain sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


@dataclass(frozen=True)
class Attribute:
    """A discretised attribute of a relation.

    Parameters
    ----------
    name:
        Attribute name, e.g. ``"income"``.
    size:
        Number of discrete values (bins) in this attribute's domain.
    lo, hi:
        Optional numeric range the bins discretise (uniform-width bins; the
        census generator bins raw values by them).  Purely categorical
        attributes leave these as ``None``.
    labels:
        Optional human-readable labels of the categorical values.
    """

    name: str
    size: int
    lo: float | None = None
    hi: float | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"attribute {self.name!r} must have a positive domain size")
        if self.labels is not None and len(self.labels) != self.size:
            raise ValueError(f"attribute {self.name!r}: labels do not match domain size")


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`Attribute` objects."""

    attributes: tuple[Attribute, ...]
    name: str = "T"
    _index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate attribute names in schema")
        object.__setattr__(self, "_index", {a.name: i for i, a in enumerate(self.attributes)})

    @classmethod
    def build(cls, attributes: Iterable[Attribute], name: str = "T") -> "Schema":
        return cls(tuple(attributes), name=name)

    def __len__(self) -> int:
        return len(self.attributes)

    def __iter__(self):
        return iter(self.attributes)

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.attributes[self._index[key]]
        return self.attributes[key]

    def index_of(self, name: str) -> int:
        """Position of the attribute called ``name``."""
        if name not in self._index:
            raise KeyError(f"unknown attribute {name!r}")
        return self._index[name]

    @property
    def domain(self) -> tuple[int, ...]:
        """Per-attribute domain sizes, in schema order."""
        return tuple(a.size for a in self.attributes)

    @property
    def domain_size(self) -> int:
        """Size of the vectorised domain (product of attribute domain sizes)."""
        return int(np.prod([a.size for a in self.attributes], dtype=np.int64))

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema of the projection onto the named attributes (given order)."""
        return Schema(tuple(self[name] for name in names), name=self.name)

    def describe(self) -> str:
        """Human-readable one-line summary, e.g. ``T(age:5, income:5000)``."""
        parts = ", ".join(f"{a.name}:{a.size}" for a in self.attributes)
        return f"{self.name}({parts})"
