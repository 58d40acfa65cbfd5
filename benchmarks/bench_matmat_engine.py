"""Benchmark of the vectorized block-matmat engine.

Measures, for structured matrices (Prefix, hierarchical VStack, Kronecker):

* ``dense()`` materialisation — the vectorized blocked-matmat path versus a
  per-column baseline that this script keeps for itself (``_percol_dense``:
  one interpreter-level matvec per column of ``np.eye(n)``);
* block products ``A @ B`` for multi-column ``B`` — matmat versus per-column;
* inference paths — multiplicative weights over a Kronecker marginal workload
  (blocked row pre-extraction versus one ``row(i)`` call per query per pass),
  and warm-cache normal-equations least squares versus per-request LSMR;
* sparse-strategy solves — ``build_normal_equations`` on a
  disjoint-partition (``ReductionMatrix``-derived) strategy, factorised from
  the strategy's CSR form, versus the dense blocked Gram + Cholesky.  Gated:
  the sparse path must stay >= ``--min-sparse-speedup`` faster.

Each run appends one trajectory point to ``BENCH_matmat.json`` at the repo
root, so perf changes across PRs are recorded.  The run fails (non-zero exit)
if the Kronecker dense-materialisation speedup at the largest measured domain
falls below ``--min-speedup``, which is how CI catches regressions of the
engine.

Usage::

    python benchmarks/bench_matmat_engine.py            # full sizes
    python benchmarks/bench_matmat_engine.py --quick    # CI smoke mode
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from repro.matrix import (
    HierarchicalQueries,
    Identity,
    Kronecker,
    LinearQueryMatrix,
    Prefix,
    RangeQueries,
    ReductionMatrix,
    VStack,
    all_kway_marginals,
)
from repro.operators.inference import (
    build_normal_equations,
    least_squares,
    multiplicative_weights,
)

try:
    from .conftest import _time, record_trajectory
except ImportError:  # pragma: no cover
    from conftest import _time, record_trajectory

#: The gate family: the tensor-contraction kernel gives Kronecker matrices the
#: largest win, and multi-dimensional domains are where the paper's implicit
#: representation matters most.
GATE_FAMILY = "kronecker"


#: Factorisations used for the Kronecker family: three-way domains are the
#: representative multi-dimensional case (Example 7.3 of the paper).
_KRON_FACTORS = {256: (8, 8, 4), 1024: (16, 8, 8), 4096: (16, 16, 16), 16384: (32, 32, 16)}


def _build_family(family: str, n: int) -> LinearQueryMatrix:
    if family == "prefix":
        return Prefix(n)
    if family == "hierarchical":
        return HierarchicalQueries(n)
    if family == "kronecker":
        if n in _KRON_FACTORS:
            return Kronecker([Prefix(side) for side in _KRON_FACTORS[n]])
        side = int(round(np.sqrt(n)))
        return Kronecker([Prefix(side), Prefix(side)])
    raise ValueError(f"unknown matrix family {family!r}")


def _percol_matmat(matrix: LinearQueryMatrix, B: np.ndarray) -> np.ndarray:
    """Per-column baseline: one interpreter-level matvec per column of ``B``."""
    out = np.empty((matrix.shape[0], B.shape[1]))
    for j in range(B.shape[1]):
        out[:, j] = matrix.matvec(B[:, j])
    return out


def _percol_dense(matrix: LinearQueryMatrix) -> np.ndarray:
    """Per-column baseline of dense(): the matvec loop over ``np.eye(n)``."""
    return _percol_matmat(matrix, np.eye(matrix.shape[1]))


def bench_dense_materialisation(families, sizes, repeats):
    results = []
    for family in families:
        for n in sizes:
            matrix = _build_family(family, n)
            baseline = _time(lambda: _percol_dense(matrix), repeats)
            vectorized = _time(matrix.dense, repeats)
            # Guard correctness while we are here: both paths must agree.
            np.testing.assert_allclose(matrix.dense(), _percol_dense(matrix), atol=1e-9)
            results.append(
                {
                    "section": "dense",
                    "family": family,
                    "n": n,
                    "shape": list(matrix.shape),
                    "percol_seconds": baseline,
                    "matmat_seconds": vectorized,
                    "speedup": baseline / max(vectorized, 1e-12),
                }
            )
    return results


def bench_block_matmat(families, sizes, repeats, k=32):
    results = []
    rng = np.random.default_rng(0)
    for family in families:
        for n in sizes:
            matrix = _build_family(family, n)
            B = rng.normal(size=(matrix.shape[1], k))
            baseline = _time(lambda: _percol_matmat(matrix, B), repeats)
            vectorized = _time(lambda: matrix.matmat(B), repeats)
            results.append(
                {
                    "section": "block_matmat",
                    "family": family,
                    "n": n,
                    "k": k,
                    "percol_seconds": baseline,
                    "matmat_seconds": vectorized,
                    "speedup": baseline / max(vectorized, 1e-12),
                }
            )
    return results


def bench_inference(domain, repeats):
    rng = np.random.default_rng(1)
    # MW over all 2-way marginals of a multi-dimensional domain: the rows live
    # inside Kronecker factors, so per-row extraction is expensive while the
    # blocked rows() kernel is one tensor contraction per block.
    queries = all_kway_marginals(domain, 2)
    n = queries.shape[1]
    x_true = rng.integers(0, 50, size=n).astype(np.float64)
    answers = queries.matvec(x_true) + rng.normal(scale=1.0, size=queries.shape[0])
    total = float(x_true.sum())

    def mw_row_at_a_time(iterations=3):
        x_hat = np.full(n, total / n)
        for _ in range(iterations):
            for i in range(queries.shape[0]):
                row = queries.row(i)
                error = answers[i] - float(row @ x_hat)
                x_hat = x_hat * np.exp(row * error / (2.0 * total))
                x_hat *= total / x_hat.sum()
        return x_hat

    mw_old = _time(lambda: mw_row_at_a_time(), repeats)
    mw_new = _time(
        lambda: multiplicative_weights(queries, answers, total=total, iterations=3),
        repeats,
    )

    # Warm-cache normal equations on a tall-skinny random-range workload: the
    # Gram/Cholesky artifact is built once per strategy (and shareable through
    # the service ArtifactCache), so the per-request cost is one rmatvec plus a
    # triangular solve, versus hundreds of LSMR iterations per request.
    ls_n = 512
    pairs = rng.integers(0, ls_n, size=(16 * ls_n, 2))
    ls_queries = RangeQueries(ls_n, [(min(a, b), max(a, b)) for a, b in pairs])
    ls_answers = ls_queries.matvec(rng.normal(size=ls_n))
    warm_artifact = build_normal_equations(ls_queries)

    class _Warm:
        def get_or_build(self, key, builder):
            return warm_artifact

    ls_lsmr = _time(lambda: least_squares(ls_queries, ls_answers, method="lsmr"), repeats)
    ls_normal = _time(
        lambda: least_squares(ls_queries, ls_answers, method="normal", gram_cache=_Warm()),
        repeats,
    )
    return [
        {
            "section": "inference",
            "path": "multiplicative_weights",
            "n": n,
            "num_queries": queries.shape[0],
            "percol_seconds": mw_old,
            "matmat_seconds": mw_new,
            "speedup": mw_old / max(mw_new, 1e-12),
        },
        {
            "section": "inference",
            "path": "least_squares_warm_gram",
            "n": ls_n,
            "num_queries": ls_queries.shape[0],
            "lsmr_seconds": ls_lsmr,
            "normal_seconds": ls_normal,
            "speedup": ls_lsmr / max(ls_normal, 1e-12),
        },
    ]


def bench_partition_scatter(sizes, repeats, k: int = 64):
    """Grouped block sums: the cached-CSR product versus the old ``np.add.at``.

    ``ReductionMatrix._matmat`` (and the expansion-matrix ``_rmatmat``
    kernels) previously scattered rows with the unbuffered ``np.add.at``;
    they now route through a lazily cached CSR partition matrix, whose matmat
    kernel sums each group's rows in C (a sorted ``reduceat`` was measured
    too, but loses the random-gather copy of ``B`` at large domains).
    """
    results = []
    rng = np.random.default_rng(3)
    for n in sizes:
        reduction = ReductionMatrix(rng.integers(0, n // 8, size=n))
        B = rng.normal(size=(n, k))

        def add_at_baseline():
            out = np.zeros((reduction.num_groups, B.shape[1]))
            np.add.at(out, reduction.groups, B)
            return out

        np.testing.assert_allclose(reduction._matmat(B), add_at_baseline(), atol=1e-9)
        baseline = _time(add_at_baseline, repeats)
        vectorized = _time(lambda: reduction._matmat(B), repeats)
        results.append(
            {
                "section": "partition_matmat",
                "family": "reduction",
                "n": n,
                "k": k,
                "num_groups": reduction.num_groups,
                "add_at_seconds": baseline,
                "csr_seconds": vectorized,
                "speedup": baseline / max(vectorized, 1e-12),
            }
        )
    return results


def bench_sparse_strategy(sizes, repeats, group_width: int = 8):
    """Sparse-strategy versus dense-Gram solve on a disjoint-partition strategy.

    The strategy stacks a ``ReductionMatrix`` (contiguous groups of
    ``group_width`` cells) on an ``Identity``, so it holds ~``2 * n``
    non-zeros, which ``build_normal_equations`` factorises directly (the
    augmented kind).  The baseline materialises the dense ``(n, n)`` Gram and
    Cholesky-factors it.  Timed end-to-end: factorisation + one solve, i.e.
    the cold per-strategy cost a service pays the first time a tenant uses
    the strategy.
    """
    results = []
    rng = np.random.default_rng(2)
    for n in sizes:
        strategy = VStack([ReductionMatrix(np.arange(n) // group_width), Identity(n)])
        answers = strategy.matvec(rng.normal(size=n))
        rhs = strategy.rmatvec(answers)

        def dense_solve():
            return cho_solve(cho_factor(strategy.gram_dense()), rhs)

        def sparse_solve():
            return build_normal_equations(strategy).solve(rhs)

        np.testing.assert_allclose(sparse_solve(), dense_solve(), atol=1e-6)
        dense_seconds = _time(dense_solve, repeats)
        sparse_seconds = _time(sparse_solve, repeats)
        results.append(
            {
                "section": "sparse_strategy",
                "family": "disjoint_partition",
                "n": n,
                "num_queries": strategy.shape[0],
                "kind": build_normal_equations(strategy).kind,
                "strategy_nnz": int(strategy.sparse().nnz),
                "dense_seconds": dense_seconds,
                "sparse_seconds": sparse_seconds,
                "speedup": dense_seconds / max(sparse_seconds, 1e-12),
            }
        )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode: fewer sizes/repeats")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail if the Kronecker dense speedup at the largest domain is below "
        "this (default: 10 full, 3 quick — CI hardware is noisy)",
    )
    parser.add_argument(
        "--min-sparse-speedup",
        type=float,
        default=3.0,
        help="fail if the sparse-strategy solve speedup over the dense Gram + "
        "Cholesky on the disjoint-partition strategy falls below this (default: 3)",
    )
    parser.add_argument(
        "--no-record", action="store_true", help="skip appending to BENCH_matmat.json"
    )
    args = parser.parse_args()

    if args.quick:
        dense_sizes, block_sizes, mw_domain, repeats = [4096], [4096], (8, 8, 4), 1
    else:
        dense_sizes, block_sizes, mw_domain, repeats = (
            [1024, 4096],
            [1024, 4096, 16384],
            (16, 16, 4),
            3,
        )
    # One size in both modes: the dense baseline is an O(n^3) Cholesky, so a
    # single n >= 4096 point is enough to expose the gap without stalling CI.
    sparse_strategy_sizes = [4096]
    min_speedup = args.min_speedup if args.min_speedup is not None else (3.0 if args.quick else 10.0)

    families = ["prefix", "hierarchical", "kronecker"]
    results = bench_dense_materialisation(families, dense_sizes, repeats)
    results += bench_block_matmat(families, block_sizes, repeats)
    results += bench_inference(mw_domain, repeats)
    results += bench_partition_scatter(block_sizes, repeats)
    results += bench_sparse_strategy(sparse_strategy_sizes, repeats)

    print(f"\nVectorized block-matmat engine ({'quick' if args.quick else 'full'} mode)\n")
    for r in results:
        label = f"{r['section']}/{r.get('family', r.get('path'))} n={r['n']}"
        print(f"  {label:52s} speedup {r['speedup']:8.1f}x")

    largest = max(dense_sizes)
    gate = next(
        r for r in results
        if r["section"] == "dense" and r["family"] == GATE_FAMILY and r["n"] == largest
    )
    print(
        f"\nGate: {GATE_FAMILY} dense() at n={largest}: {gate['speedup']:.1f}x "
        f"(threshold {min_speedup:.1f}x)"
    )
    sparse_gate = next(
        r
        for r in results
        if r["section"] == "sparse_strategy" and r["n"] == max(sparse_strategy_sizes)
    )
    print(
        f"Gate: sparse-strategy solve at n={sparse_gate['n']}: "
        f"{sparse_gate['speedup']:.1f}x (threshold {args.min_sparse_speedup:.1f}x)"
    )

    if not args.no_record:
        record_trajectory("matmat", "quick" if args.quick else "full", results)

    if gate["speedup"] < min_speedup:
        print("FAIL: vectorized engine regression", file=sys.stderr)
        return 1
    if sparse_gate["speedup"] < args.min_sparse_speedup:
        print("FAIL: sparse-strategy solve regression", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
