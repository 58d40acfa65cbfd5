"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` module regenerates one table or figure of the paper's
evaluation.  Every module can be used two ways:

* ``pytest benchmarks/ --benchmark-only`` — runs scaled-down pytest-benchmark
  timings so the whole harness finishes in minutes;
* ``python benchmarks/bench_<experiment>.py [--full]`` — prints the table /
  series the paper reports (``--full`` uses the paper-scale parameters).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataset import Attribute, Relation, Schema
from repro.private import protect


def vector_relation(values: np.ndarray, name: str = "v") -> Relation:
    """Wrap a histogram as a one-attribute relation."""
    schema = Schema.build([Attribute(name, len(values))])
    return Relation.from_histogram(schema, np.asarray(values, dtype=np.float64))


def vector_source(values: np.ndarray, epsilon: float = 1.0, seed: int = 0):
    """Protected vector source around a histogram."""
    return protect(vector_relation(values), epsilon, seed=seed).vectorize()


@pytest.fixture
def make_vector_source():
    return vector_source
