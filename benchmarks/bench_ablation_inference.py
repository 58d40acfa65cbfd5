"""Ablation — inference operators compared on identical measurements.

The inference operator is a key design choice: EKTELO's claim is that a
single generic, iterative inference engine (least squares / NNLS on implicit
matrices) can replace the custom routines of prior work without losing
accuracy.  This ablation measures, on the same set of noisy
hierarchical measurements:

* ordinary least squares (iterative LSMR),
* non-negative least squares (L-BFGS-B),
* NNLS with a known total,
* multiplicative weights,
* tree-based least squares (the specialised Hay et al. routine: the
  normal equations' tree kind),
* thresholded identity (no joint inference at all),

reporting scaled per-query L2 error on a random range workload and runtime.
This is not a table in the paper, but it isolates the "inference: impact on
accuracy" discussion of Sec. 5.5.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.analysis import format_table, per_query_l2_error
from repro.dataset import load_1d
from repro.matrix import HierarchicalQueries
from repro.operators.inference import (
    least_squares,
    multiplicative_weights,
    nnls,
    nnls_with_total,
    threshold,
)
from repro.workload import random_range_workload


def run_experiment(
    n: int = 1024, epsilon: float = 0.1, scale: int = 500_000, dataset: str = "PIECEWISE", seed: int = 0
):
    """Return rows (method, error, runtime) on a shared measurement set."""
    rng = np.random.default_rng(seed)
    x = load_1d(dataset, n=n, scale=scale)
    workload = random_range_workload(n, 200, seed=seed)
    measurements = HierarchicalQueries(n, branching=2)
    noise_scale = measurements.sensitivity() / epsilon
    answers = measurements.matvec(x) + rng.laplace(0, noise_scale, measurements.shape[0])

    total = float(x.sum())
    methods = {
        "LS (LSMR)": lambda: least_squares(measurements, answers).x_hat,
        "NNLS": lambda: nnls(measurements, answers).x_hat,
        "NNLS + known total": lambda: nnls_with_total(measurements, answers, total=total).x_hat,
        "Multiplicative weights": lambda: multiplicative_weights(
            measurements, answers, total=total, iterations=10
        ).x_hat,
        "Tree-based LS": lambda: least_squares(measurements, answers, method="normal").x_hat,
        "Identity rows + threshold": lambda: threshold(
            answers[:n], noise_scale=noise_scale
        ).x_hat,
    }

    rows = []
    for name, run in methods.items():
        start = time.perf_counter()
        estimate = run()
        runtime = time.perf_counter() - start
        error = per_query_l2_error(workload, x, estimate)
        rows.append((name, error, runtime))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--domain", type=int, default=1024)
    parser.add_argument("--epsilon", type=float, default=0.1)
    args = parser.parse_args()
    rows = run_experiment(n=args.domain, epsilon=args.epsilon)
    print("\nAblation — inference operators on identical hierarchical measurements\n")
    print(format_table(["inference", "per-query L2 error", "runtime (s)"], rows))


# ----------------------------------------------------------------------------
# pytest-benchmark entry points.
# ----------------------------------------------------------------------------
def _prepared(n=2048, epsilon=0.1, seed=0):
    rng = np.random.default_rng(seed)
    x = load_1d("PIECEWISE", n=n, scale=500_000)
    measurements = HierarchicalQueries(n, branching=2)
    noise_scale = measurements.sensitivity() / epsilon
    answers = measurements.matvec(x) + rng.laplace(0, noise_scale, measurements.shape[0])
    return x, measurements, answers


def test_benchmark_ablation_ls(benchmark):
    _, measurements, answers = _prepared()
    benchmark(least_squares, measurements, answers)


def test_benchmark_ablation_nnls(benchmark):
    _, measurements, answers = _prepared()
    benchmark(nnls, measurements, answers)


def test_benchmark_ablation_mw(benchmark):
    x, measurements, answers = _prepared()
    benchmark(multiplicative_weights, measurements, answers, float(x.sum()), None, 5)


def test_ablation_shape():
    """Joint inference (LS/NNLS) beats no-inference thresholding on range queries."""
    rows = {name: error for name, error, _ in run_experiment(n=512, epsilon=0.1, seed=2)}
    assert rows["LS (LSMR)"] < rows["Identity rows + threshold"]
    assert rows["NNLS + known total"] <= rows["LS (LSMR)"] * 1.5
    # On the same answers, the tree's two passes are least squares too.
    assert abs(rows["Tree-based LS"] - rows["LS (LSMR)"]) <= 1e-6 * rows["LS (LSMR)"]


if __name__ == "__main__":
    main()
