"""Benchmark of the vectorized data-dependent plan engine.

Measures the four hot paths this engine rewired, each against the retained
seed implementation:

* ``dawa_dp`` — the DAWA L1 partition DP (:func:`l1_partition`) versus the
  scalar reference issuing one Python-level ``interval_cost`` call per
  (end, dyadic length) pair;
* ``dawa_dp_striped`` — :func:`l1_partition_batch` across the stripes of a
  striped plan (the DawaStripedPlan hot path: many short histograms) versus
  one scalar reference DP per stripe.  **Gated**: the batch at a total domain
  of ``n = 4096`` must stay >= ``--min-dawa-speedup`` faster;
* ``ahp_clustering`` — the vectorized AHP greedy clustering versus the
  per-cell scalar reference;
* ``mw_sequential`` — one sequential multiplicative-weights pass with
  support-sparse exponentials versus the dense update (bit-identical
  trajectories; only the wasted ``exp`` calls differ);
* ``expected_error`` — the Gram-engine :func:`expected_workload_error`
  (factorise once, blocked trace) versus the seed's per-workload-row
  ``pinv(A^T A)`` recomputation.  **Gated** at ``--min-error-speedup``.  The
  baseline is measured on a few rows and extrapolated linearly in the row
  count (exact: the seed's per-row cost is a constant pinv); for domains where
  even one pinv is impractical the per-row cost is extrapolated cubically
  from the largest measured domain and marked ``"baseline": "extrapolated"``.

Each run appends one trajectory point to ``BENCH_data_dependent.json`` at the
repo root.  CI runs ``--quick`` mode with loose 5x floors so slow runners do
not flake; full mode asserts the engine's headline numbers (>= 50x on the
striped DAWA DP, >= 100x on expected-error analysis).

Usage::

    python benchmarks/bench_data_dependent.py            # full sizes
    python benchmarks/bench_data_dependent.py --quick    # CI smoke mode
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis import expected_workload_error
from repro.matrix import Identity, RangeQueries, ReductionMatrix, VStack
from repro.operators.inference import multiplicative_weights
from repro.operators.partition import cluster_sorted_counts, l1_partition, l1_partition_batch
from repro.operators.partition.ahp import _reference_cluster_sorted_counts
from repro.operators.partition.dawa import _reference_l1_partition

try:
    from .conftest import _time, record_trajectory
except ImportError:  # pragma: no cover
    from conftest import _time, record_trajectory

#: Stripe layout of the gated striped-DP measurement: 256 stripes of 16 cells,
#: a 4096-cell total domain (e.g. a coarse attribute striped over a 2-D census
#: product domain).
GATE_STRIPES = (256, 16)


def _plateau_histogram(rng, n: int, noise_scale: float) -> np.ndarray:
    """A piecewise-constant histogram with Laplace noise (DAWA's target shape)."""
    plateau = np.repeat(rng.integers(0, 100, n // 16 + 1), 16)[:n].astype(np.float64)
    return plateau + rng.laplace(0.0, noise_scale, n)


def bench_dawa_dp(sizes, repeats):
    results = []
    rng = np.random.default_rng(0)
    noise_scale = 2.0
    for n in sizes:
        noisy = _plateau_histogram(rng, n, noise_scale)
        reference = _time(lambda: _reference_l1_partition(noisy, noise_scale), repeats)
        vectorized = _time(lambda: l1_partition(noisy, noise_scale), repeats)
        assert np.array_equal(
            l1_partition(noisy, noise_scale), _reference_l1_partition(noisy, noise_scale)
        )
        results.append(
            {
                "section": "dawa_dp",
                "n": n,
                "reference_seconds": reference,
                "vectorized_seconds": vectorized,
                "speedup": reference / max(vectorized, 1e-12),
            }
        )
    return results


def bench_dawa_dp_striped(stripe_shapes, repeats):
    results = []
    rng = np.random.default_rng(1)
    noise_scale = 1.5
    for num_stripes, stripe_length in stripe_shapes:
        blocks = rng.integers(0, 60, size=(num_stripes, stripe_length)).astype(np.float64)
        blocks = blocks + rng.laplace(0.0, noise_scale, size=blocks.shape)

        def per_stripe_reference():
            return [_reference_l1_partition(row, noise_scale) for row in blocks]

        reference = _time(per_stripe_reference, repeats)
        vectorized = _time(lambda: l1_partition_batch(blocks, noise_scale), repeats)
        assert np.array_equal(
            l1_partition_batch(blocks, noise_scale), np.stack(per_stripe_reference())
        )
        results.append(
            {
                "section": "dawa_dp_striped",
                "n": num_stripes * stripe_length,
                "num_stripes": num_stripes,
                "stripe_length": stripe_length,
                "reference_seconds": reference,
                "vectorized_seconds": vectorized,
                "speedup": reference / max(vectorized, 1e-12),
            }
        )
    return results


def bench_ahp_clustering(sizes, repeats):
    results = []
    rng = np.random.default_rng(2)
    for n in sizes:
        noisy = np.maximum(rng.laplace(5.0, 25.0, n), 0.0)
        reference = _time(lambda: _reference_cluster_sorted_counts(noisy), repeats)
        vectorized = _time(lambda: cluster_sorted_counts(noisy), repeats)
        assert np.array_equal(
            cluster_sorted_counts(noisy), _reference_cluster_sorted_counts(noisy)
        )
        results.append(
            {
                "section": "ahp_clustering",
                "n": n,
                "reference_seconds": reference,
                "vectorized_seconds": vectorized,
                "speedup": reference / max(vectorized, 1e-12),
            }
        )
    return results


def bench_mw_sequential(n, num_queries, repeats, iterations=10, max_range=64):
    """Sequential-MW pass time: support-sparse exponentials versus dense.

    Short range queries (the common workload row) make the contrast sharp:
    the dense update exponentiates all ``n`` cells per query, the support
    update only the covered range.  Both trajectories are bit-identical.
    Rows are pre-extracted once and passed through ``row_cache`` — the MWEM
    history-replay shape, where the same rows are swept pass after pass and
    the extraction cost is long amortised.
    """
    rng = np.random.default_rng(3)
    starts = rng.integers(0, n - max_range, size=num_queries)
    widths = rng.integers(1, max_range, size=num_queries)
    queries = RangeQueries(n, [(int(s), int(s + w)) for s, w in zip(starts, widths)])
    x_true = rng.integers(0, 50, size=n).astype(np.float64)
    answers = queries.matvec(x_true) + rng.normal(0.0, 1.0, num_queries)
    total = float(x_true.sum())
    rows = queries.rows(np.arange(num_queries))

    def run(support_sparse):
        return multiplicative_weights(
            queries,
            answers,
            total=total,
            iterations=iterations,
            support_sparse=support_sparse,
            row_cache=rows,
        )

    dense = _time(lambda: run(False), repeats)
    sparse = _time(lambda: run(True), repeats)
    assert np.array_equal(run(True).x_hat, run(False).x_hat)
    return [
        {
            "section": "mw_sequential",
            "n": n,
            "num_queries": num_queries,
            "iterations": iterations,
            "dense_seconds": dense,
            "support_seconds": sparse,
            "speedup": dense / max(sparse, 1e-12),
        }
    ]


def _partition_strategy(n: int, group_width: int = 8):
    """A DAWA-style strategy: disjoint group totals stacked on the identity."""
    return VStack([ReductionMatrix(np.arange(n) // group_width), Identity(n)])


def bench_expected_error(sizes, num_queries, repeats, baseline_rows_by_n):
    """Gram-engine expected-error analysis versus per-row pinv recomputation.

    The baseline's per-row cost is one dense ``pinv(A^T A)`` plus a quadratic
    form; it is measured on ``baseline_rows_by_n[n]`` rows and extrapolated
    linearly to the full workload (exact — the seed recomputed the pinv for
    *every* row).  Sizes with no measured rows extrapolate the per-row cost
    cubically (the SVD's complexity) from the largest measured size.
    """
    results = []
    rng = np.random.default_rng(4)
    measured_per_row: dict[int, float] = {}
    for n in sizes:
        pairs = rng.integers(0, n, size=(num_queries, 2))
        workload = RangeQueries(n, [(min(a, b), max(a, b)) for a, b in pairs])
        strategy = _partition_strategy(n)
        engine = _time(lambda: expected_workload_error(workload, strategy), repeats)

        rows_to_measure = baseline_rows_by_n.get(n, 0)
        if rows_to_measure:
            W = workload.rows(np.arange(rows_to_measure))
            A = strategy.dense()
            sensitivity = float(np.abs(A).sum(axis=0).max())

            def per_row_pinv():
                return sum(
                    2.0 * sensitivity**2 * float(q @ np.linalg.pinv(A.T @ A) @ q)
                    for q in W
                )

            per_row = _time(per_row_pinv, 1) / rows_to_measure
            measured_per_row[n] = per_row
            baseline_kind = "measured_rows"
        else:
            reference_n = max(measured_per_row)
            per_row = measured_per_row[reference_n] * (n / reference_n) ** 3
            baseline_kind = "extrapolated"
        baseline = per_row * num_queries
        results.append(
            {
                "section": "expected_error",
                "n": n,
                "num_queries": num_queries,
                "baseline": baseline_kind,
                "baseline_rows_measured": rows_to_measure,
                "baseline_seconds": baseline,
                "engine_seconds": engine,
                "speedup": baseline / max(engine, 1e-12),
            }
        )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode: fewer sizes/repeats")
    parser.add_argument(
        "--min-dawa-speedup",
        type=float,
        default=None,
        help="fail if the striped DAWA DP speedup at the n=4096 gate layout "
        "falls below this (default: 50 full, 5 quick — CI hardware is noisy)",
    )
    parser.add_argument(
        "--min-error-speedup",
        type=float,
        default=None,
        help="fail if the expected-workload-error speedup at the largest "
        "measured-baseline domain falls below this (default: 100 full, 5 quick)",
    )
    parser.add_argument(
        "--no-record", action="store_true", help="skip appending to BENCH_data_dependent.json"
    )
    args = parser.parse_args()

    if args.quick:
        repeats = 1
        dawa_sizes = [1024, 4096]  # 4096: paper-1d's domain
        ahp_sizes = [4096]
        stripe_shapes = [GATE_STRIPES]
        mw_config = (512, 256)
        error_sizes = [512]
        baseline_rows = {512: 4}
    else:
        repeats = 3
        dawa_sizes = [1024, 4096, 16384]
        ahp_sizes = [1024, 4096, 16384]
        stripe_shapes = [GATE_STRIPES, (128, 32), (64, 64)]
        mw_config = (4096, 1024)
        error_sizes = [1024, 4096, 16384]
        baseline_rows = {1024: 3, 4096: 1}  # one pinv at 4096 is ~half a minute

    min_dawa = args.min_dawa_speedup if args.min_dawa_speedup is not None else (
        5.0 if args.quick else 50.0
    )
    min_error = args.min_error_speedup if args.min_error_speedup is not None else (
        5.0 if args.quick else 100.0
    )

    results = bench_dawa_dp(dawa_sizes, repeats)
    results += bench_dawa_dp_striped(stripe_shapes, repeats)
    results += bench_ahp_clustering(ahp_sizes, repeats)
    results += bench_mw_sequential(mw_config[0], mw_config[1], repeats)
    results += bench_expected_error(error_sizes, 2048, max(repeats - 1, 1), baseline_rows)

    print(f"\nVectorized data-dependent engine ({'quick' if args.quick else 'full'} mode)\n")
    for r in results:
        label = f"{r['section']} n={r['n']}"
        if "num_stripes" in r:
            label += f" ({r['num_stripes']}x{r['stripe_length']})"
        print(f"  {label:44s} speedup {r['speedup']:10.1f}x")

    dawa_gate = next(
        r
        for r in results
        if r["section"] == "dawa_dp_striped"
        and (r["num_stripes"], r["stripe_length"]) == GATE_STRIPES
    )
    error_gate = max(
        (r for r in results if r["section"] == "expected_error" and r["baseline_rows_measured"]),
        key=lambda r: r["n"],
    )
    print(
        f"\nGate: striped DAWA DP at n={dawa_gate['n']}: {dawa_gate['speedup']:.1f}x "
        f"(threshold {min_dawa:.1f}x)"
    )
    print(
        f"Gate: expected_workload_error at n={error_gate['n']}: "
        f"{error_gate['speedup']:.1f}x (threshold {min_error:.1f}x)"
    )

    if not args.no_record:
        record_trajectory("data_dependent", "quick" if args.quick else "full", results)

    if dawa_gate["speedup"] < min_dawa:
        print("FAIL: striped DAWA DP regression", file=sys.stderr)
        return 1
    if error_gate["speedup"] < min_error:
        print("FAIL: expected-error engine regression", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
