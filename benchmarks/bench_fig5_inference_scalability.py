"""Fig. 5 — inference scalability: LS / NNLS runtime vs data-vector size.

Paper setting: hierarchical (H2) measurements over 1-D domains from 10^3 up to
10^9 cells; compared configurations are

    LS   dense + direct        LS   dense + iterative
    LS   sparse + iterative    LS   implicit + iterative
    NNLS dense + iterative     NNLS sparse + iterative
    NNLS implicit + iterative  LS   tree-based (Hay et al.)

Paper result: iterative + sparse/implicit representations scale to data
vectors ~1000x larger than direct/dense approaches within the same time
budget, and the generic implicit LS scales beyond the specialised tree-based
method.  Here the tree-based row is the normal equations' tree kind, which
is exact and O(m) for any hierarchy: at 2^18 cells it took 41 ms against
implicit LSMR's 328 ms (``BENCH_fig5.json``, one BLAS thread, 2-core VM).

Every row at one size infers from the same ``HierarchicalQueries`` answers,
and only the inference call is timed.  ``--quick`` runs 2^8 and 2^10 cells
(the CI smoke), the default 2^10-2^14, ``--full`` 2^10-2^18; each run
appends a point to ``BENCH_fig5.json`` unless ``--no-record``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

try:
    from .conftest import record_trajectory
except ImportError:  # run as a script
    from conftest import record_trajectory

from repro.analysis import format_table
from repro.matrix import HierarchicalQueries
from repro.operators.inference import least_squares, nnls
from repro.plans.base import with_representation

CONFIGS = [
    ("LS", "dense", "direct"),
    ("LS", "dense", "iterative"),
    ("LS", "sparse", "iterative"),
    ("LS", "implicit", "iterative"),
    ("NNLS", "dense", "iterative"),
    ("NNLS", "sparse", "iterative"),
    ("NNLS", "implicit", "iterative"),
    ("LS", "tree-based", "-"),
]

#: Representation/method combinations are skipped above these sizes so the
#: harness finishes; mirrors the paper's per-curve cutoff points (dense
#: representations of the hierarchical measurement matrix hit memory limits
#: first, direct solvers hit cubic runtime next, exactly as in Fig. 5).
SKIP_ABOVE = {
    ("LS", "dense", "direct"): 4096,
    ("LS", "dense", "iterative"): 4096,
    ("NNLS", "dense", "iterative"): 4096,
    ("LS", "sparse", "iterative"): 2**20,
    ("NNLS", "sparse", "iterative"): 2**18,
    ("NNLS", "implicit", "iterative"): 2**20,
}

#: Domain sizes of each mode: the paper's sweep runs from 2^10 up; ``--full``
#: reaches 2^18.
SIZES = {
    "quick": (2**8, 2**10),
    "default": (2**10, 2**12, 2**14),
    "full": (2**10, 2**12, 2**14, 2**16, 2**18),
}


def _measurements_and_answers(n: int, seed: int = 0):
    """H2's measurements of a random vector and their Laplace(10)-noised
    answers, shared by every configuration at ``n``."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 100, size=n).astype(np.float64)
    matrix = HierarchicalQueries(n, branching=2)
    answers = matrix.matvec(x) + rng.laplace(0, 10.0, matrix.shape[0])
    return matrix, answers


def run_one(config, n: int, seed: int = 0, problem=None) -> float | None:
    """Seconds one configuration's inference takes, or None if skipped.

    Only the inference call is timed: the measurements, their answers and
    the representation are built first.  The tree-based row is the normal
    equations' tree kind on the implicit hierarchy (its build included).
    """
    method, representation, solver = config
    if SKIP_ABOVE.get(config) and n > SKIP_ABOVE[config]:
        return None
    matrix, answers = problem if problem is not None else _measurements_and_answers(n, seed)
    if representation == "tree-based":
        start = time.perf_counter()
        least_squares(matrix, answers, method="normal")
        return time.perf_counter() - start
    materialised = with_representation(matrix, representation)
    start = time.perf_counter()
    if method == "LS":
        least_squares(materialised, answers, method="direct" if solver == "direct" else "lsmr")
    else:
        nnls(materialised, answers)
    return time.perf_counter() - start


def run_experiment(domain_sizes=SIZES["default"], seed: int = 0):
    rows = []
    for n in domain_sizes:
        problem = _measurements_and_answers(n, seed)
        for config in CONFIGS:
            elapsed = run_one(config, n, seed=seed, problem=problem)
            rows.append((" ".join(config), n, elapsed))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    modes = parser.add_mutually_exclusive_group()
    modes.add_argument("--full", action="store_true", help="extend the sweep to 2^18 cells")
    modes.add_argument("--quick", action="store_true", help="CI smoke mode: 2^8 and 2^10 cells")
    parser.add_argument(
        "--no-record", action="store_true", help="skip appending to BENCH_fig5.json"
    )
    args = parser.parse_args()
    mode = "full" if args.full else "quick" if args.quick else "default"
    rows = run_experiment(domain_sizes=SIZES[mode])
    print(f"\nFig. 5 — inference runtime (s) vs data-vector size ({mode} mode)\n")
    print(
        format_table(
            ["configuration", "domain size", "runtime (s)"],
            [[c, n, "skipped" if t is None else t] for c, n, t in rows],
        )
    )
    if not args.no_record:
        record_trajectory(
            "fig5",
            mode,
            [{"configuration": c, "n": n, "seconds": t} for c, n, t in rows if t is not None],
        )


# ----------------------------------------------------------------------------
# pytest-benchmark entry points.
# ----------------------------------------------------------------------------
def test_benchmark_ls_implicit_iterative(benchmark):
    benchmark(run_one, ("LS", "implicit", "iterative"), 4096)


def test_benchmark_ls_sparse_iterative(benchmark):
    benchmark(run_one, ("LS", "sparse", "iterative"), 4096)


def test_benchmark_ls_dense_direct(benchmark):
    benchmark(run_one, ("LS", "dense", "direct"), 1024)


def test_benchmark_nnls_implicit_iterative(benchmark):
    benchmark(run_one, ("NNLS", "implicit", "iterative"), 4096)


def test_benchmark_tree_based(benchmark):
    benchmark(run_one, ("LS", "tree-based", "-"), 4096)


def test_fig5_shape_reproduces():
    """Implicit iterative LS is much faster than dense direct LS at 4096 cells."""
    direct = run_one(("LS", "dense", "direct"), 4096)
    implicit = run_one(("LS", "implicit", "iterative"), 4096)
    assert implicit is not None and direct is not None
    assert implicit < direct


if __name__ == "__main__":
    main()
