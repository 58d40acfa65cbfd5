"""Tables 2 and 3 — space usage and matvec time of core and composed matrices.

Tables 2 and 3 of the paper are analytic complexity tables; this benchmark
measures the quantities they bound: the memory footprint of each matrix
representation (every object reachable from the matrix, arrays by their
data bytes) and the wall-clock time of a matrix-vector product (best of 5
calls after a warm-up call), for the core implicit matrices (Identity,
Ones, Prefix, Suffix, Wavelet) and for the composed census workload of
Example 7.3 (Kron(Prefix, Prefix, Union(Total, Identity, Dense))).

Paper claims reproduced: implicit matrices use O(1) state (a few hundred
bytes at any n) versus O(n^2) for dense Prefix/Suffix/Wavelet, and the
Example 7.3 workload needs a few kilobytes implicitly (~3.3 KB, its dense
2x7 factor included) versus 56 GB dense at the paper's 100x100x7.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis import format_table
from repro.matrix import (
    DenseMatrix,
    HaarWavelet,
    Identity,
    Kronecker,
    Ones,
    Prefix,
    SparseMatrix,
    Suffix,
    Total,
    VStack,
)

try:
    from .conftest import _time
except ImportError:  # pragma: no cover
    from conftest import _time


def _approx_size_bytes(matrix) -> int:
    """In-memory footprint of a matrix object: the size of every object
    reachable from it, each numpy array counted by the bytes of its data."""
    total, seen, stack = 0, set(), [matrix]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
            continue
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            stack.append(vars(obj))
    return total


def _matvec_seconds(matrix, v) -> float:
    """Best of 5 ``matvec`` calls after a warm-up call."""
    matrix.matvec(v)
    return _time(lambda: matrix.matvec(v), repeats=5)


def core_matrix_rows(n: int = 2048):
    """(matrix, representation, bytes, matvec seconds) for each core matrix."""
    rng = np.random.default_rng(0)
    v = rng.normal(size=n)
    rows = []
    for name, implicit in [
        ("Identity", Identity(n)),
        ("Ones", Ones(n, n)),
        ("Prefix", Prefix(n)),
        ("Suffix", Suffix(n)),
        ("Wavelet", HaarWavelet(n)),
    ]:
        representations = {
            "implicit": implicit,
            "sparse": SparseMatrix(implicit.sparse()),
            "dense": DenseMatrix(implicit.dense()),
        }
        for repr_name, matrix in representations.items():
            rows.append((name, repr_name, _approx_size_bytes(matrix), _matvec_seconds(matrix, v)))
    return rows


def example_73_workload(income_bins: int = 100, age_bins: int = 100, marital: int = 7):
    """The Example 7.3 census workload as an implicit matrix."""
    dense_part = DenseMatrix(
        np.array([[1, 1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1, 1]], dtype=np.float64)[:, :marital]
    )
    last_factor = VStack([Total(marital), Identity(marital), dense_part])
    return Kronecker([Prefix(income_bins), Prefix(age_bins), last_factor])


def example_73_rows(income_bins: int = 100):
    w = example_73_workload(income_bins=income_bins, age_bins=income_bins)
    n = w.shape[1]
    rng = np.random.default_rng(1)
    v = rng.normal(size=n)
    implicit_time = _matvec_seconds(w, v)
    implicit_bytes = _approx_size_bytes(w)
    dense_bytes_estimate = w.shape[0] * w.shape[1] * 8
    return [
        ("Example 7.3 workload", "implicit", implicit_bytes, implicit_time),
        ("Example 7.3 workload", "dense (estimated bytes)", dense_bytes_estimate, None),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="use the paper's 100x100x7 example and n=8192 cores")
    args = parser.parse_args()
    n = 8192 if args.full else 2048
    rows = core_matrix_rows(n) + example_73_rows(income_bins=100 if args.full else 30)
    print(f"\nTables 2/3 — matrix representations (core matrices at n={n})\n")
    print(
        format_table(
            ["matrix", "representation", "bytes", "matvec time (s)"],
            [[m, r, b, "-" if t is None else t] for m, r, b, t in rows],
        )
    )


# ----------------------------------------------------------------------------
# pytest-benchmark entry points.
# ----------------------------------------------------------------------------
def test_benchmark_prefix_implicit_matvec(benchmark):
    n = 2**16
    v = np.random.default_rng(0).normal(size=n)
    benchmark(Prefix(n).matvec, v)


def test_benchmark_prefix_dense_matvec(benchmark):
    n = 2048
    matrix = DenseMatrix(Prefix(n).dense())
    v = np.random.default_rng(0).normal(size=n)
    benchmark(matrix.matvec, v)


def test_benchmark_wavelet_implicit_matvec(benchmark):
    n = 2**16
    v = np.random.default_rng(0).normal(size=n)
    benchmark(HaarWavelet(n).matvec, v)


def test_benchmark_kron_census_workload_matvec(benchmark):
    w = example_73_workload(income_bins=50, age_bins=50)
    v = np.random.default_rng(0).normal(size=w.shape[1])
    benchmark(w.matvec, v)


def test_table2_shape_reproduces():
    """Implicit representations use orders of magnitude less memory than dense."""
    rows = core_matrix_rows(n=1024) + example_73_rows(income_bins=30)
    sizes = {(name, repr_name): size for name, repr_name, size, _ in rows}
    assert sizes[("Prefix", "implicit")] * 100 < sizes[("Prefix", "dense")]
    assert sizes[("Wavelet", "implicit")] * 100 < sizes[("Wavelet", "dense")]
    # The composed workload counts its 2x7 float64 dense factor, and stays
    # three orders of magnitude below its dense form.
    implicit = sizes[("Example 7.3 workload", "implicit")]
    assert 112 <= implicit <= sizes[("Example 7.3 workload", "dense (estimated bytes)")] / 1000


if __name__ == "__main__":
    main()
