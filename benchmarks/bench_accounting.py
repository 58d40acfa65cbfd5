"""Benchmark of the pluggable privacy-accounting subsystem.

Two sections:

* ``charge_overhead`` — accountant charge throughput at service request
  rates: one kernel-shaped lineage (root → vector), many measurement-sized
  charges through :meth:`BudgetTracker.charge`, reported as charges/second
  per accountant.  The ledger acceptance check is a Neumaier-compensated
  running sum — O(1) per charge, fsum-grade accuracy — so the rate holds
  flat however long the burst grows.  **Gated**: the pure accountant must
  sustain ``--min-charge-rate`` charges/second.
* ``gaussian_vs_laplace`` — expected total squared error of range workloads
  answered through Laplace (pure ε) versus Gaussian (analytic, matched
  ``(ε, δ=1e-6)``) noise on the same strategy.  The L1-vs-L2 sensitivity
  split makes Gaussian win by ``Θ(n / ln(1/δ))`` on prefix-style strategies.
  **Gated**: the error ratio at the largest domain must stay above
  ``--min-error-ratio``.

Each run appends one trajectory point to ``BENCH_accounting.json`` at the
repo root.  CI runs ``--quick`` mode with loose floors so slow runners do
not flake.

Usage::

    python benchmarks/bench_accounting.py            # full sizes
    python benchmarks/bench_accounting.py --quick    # CI smoke mode
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.accounting import (
    ApproxDPAccountant,
    Cost,
    PureDPAccountant,
    ZCDPAccountant,
)
from repro.analysis import expected_workload_error
from repro.matrix import Prefix, RangeQueries
from repro.matrix.ranges import HierarchicalQueries
from repro.private.budget import BudgetTracker

try:
    from .conftest import _time, record_trajectory
except ImportError:  # pragma: no cover
    from conftest import _time, record_trajectory

DELTA = 1e-6


def _accountants(num_charges: int):
    """Accountants with budgets sized so every charge in the burst fits."""
    epsilon = 1e-3
    return {
        "pure": (PureDPAccountant(num_charges * epsilon * 2.0), epsilon),
        "approx": (
            ApproxDPAccountant(num_charges * epsilon * 2.0, delta_total=1e-4),
            epsilon,
        ),
        "zcdp": (
            ZCDPAccountant(rho=num_charges * epsilon**2, delta=DELTA),
            epsilon,
        ),
    }


def bench_charge_overhead(num_charges: int, repeats: int) -> list[dict]:
    """Charges/second through a kernel-shaped lineage, per accountant."""
    results = []
    for name, (accountant, epsilon) in _accountants(num_charges).items():
        def burst():
            tracker = BudgetTracker(accountant=accountant)
            tracker.add_derived("vector", "root", 1.0)
            cost = accountant.laplace_cost(epsilon)
            for _ in range(num_charges):
                if not tracker.charge("vector", cost):
                    raise RuntimeError("benchmark budget sized wrong")

        seconds = _time(burst, repeats)
        results.append(
            {
                "section": "charge_overhead",
                "accountant": name,
                "num_charges": num_charges,
                "seconds": seconds,
                "charges_per_second": num_charges / max(seconds, 1e-12),
            }
        )
    return results


def bench_gaussian_vs_laplace(sizes, epsilon: float = 1.0) -> list[dict]:
    """Expected workload error, Laplace vs Gaussian at matched (ε, δ)."""
    results = []
    for n in sizes:
        workload = RangeQueries(
            n, [(i, min(i + n // 16, n - 1)) for i in range(0, n - 1, max(n // 64, 1))]
        )
        for strategy_name, strategy in (
            ("prefix", Prefix(n)),
            ("h2", HierarchicalQueries(n)),
        ):
            laplace = expected_workload_error(workload, strategy, epsilon, noise="laplace")
            gaussian = expected_workload_error(
                workload, strategy, epsilon, noise="gaussian", delta=DELTA
            )
            results.append(
                {
                    "section": "gaussian_vs_laplace",
                    "n": n,
                    "strategy": strategy_name,
                    "epsilon": epsilon,
                    "delta": DELTA,
                    "laplace_error": laplace,
                    "gaussian_error": gaussian,
                    "error_ratio": laplace / max(gaussian, 1e-300),
                }
            )
    return results


def bench_zcdp_composition(rounds_grid) -> list[dict]:
    """Converted ε after k Laplace rounds: basic composition vs zCDP."""
    results = []
    for rounds in rounds_grid:
        per_round = 1.0 / rounds
        basic = rounds * per_round
        accountant = ZCDPAccountant(rho=1.0, delta=DELTA)
        rho = rounds * accountant.laplace_cost(per_round).primary
        eps_zcdp, _ = accountant.epsilon_delta(Cost(rho))
        results.append(
            {
                "section": "zcdp_composition",
                "rounds": rounds,
                "per_round_epsilon": per_round,
                "basic_epsilon": basic,
                "zcdp_epsilon": eps_zcdp,
                "savings_factor": basic / max(eps_zcdp, 1e-300),
            }
        )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode: fewer sizes/repeats")
    parser.add_argument(
        "--min-charge-rate",
        type=float,
        default=None,
        help="fail if the pure accountant sustains fewer charges/second than "
        "this (default: 50000 full, 10000 quick — CI hardware is noisy)",
    )
    parser.add_argument(
        "--min-error-ratio",
        type=float,
        default=None,
        help="fail if the Laplace/Gaussian expected-error ratio on the prefix "
        "strategy at the largest domain falls below this (default: 20 full, "
        "5 quick)",
    )
    parser.add_argument(
        "--no-record", action="store_true", help="skip appending to BENCH_accounting.json"
    )
    args = parser.parse_args()

    if args.quick:
        repeats = 1
        num_charges = 2000
        sizes = [256]
        rounds_grid = [10, 50]
    else:
        repeats = 3
        num_charges = 10000
        sizes = [256, 1024, 4096]
        rounds_grid = [10, 50, 200]

    min_rate = args.min_charge_rate if args.min_charge_rate is not None else (
        10_000.0 if args.quick else 50_000.0
    )
    min_ratio = args.min_error_ratio if args.min_error_ratio is not None else (
        5.0 if args.quick else 20.0
    )

    results = bench_charge_overhead(num_charges, repeats)
    results += bench_gaussian_vs_laplace(sizes)
    results += bench_zcdp_composition(rounds_grid)

    print(f"\nPrivacy-accounting benchmark ({'quick' if args.quick else 'full'} mode)\n")
    for r in results:
        if r["section"] == "charge_overhead":
            print(
                f"  charge_overhead {r['accountant']:8s} "
                f"{r['charges_per_second']:12.0f} charges/s over {r['num_charges']}"
            )
        elif r["section"] == "gaussian_vs_laplace":
            print(
                f"  gaussian_vs_laplace n={r['n']:5d} {r['strategy']:8s} "
                f"laplace/gaussian error ratio {r['error_ratio']:8.1f}x"
            )
        else:
            print(
                f"  zcdp_composition rounds={r['rounds']:4d} "
                f"basic eps {r['basic_epsilon']:.2f} -> zcdp eps "
                f"{r['zcdp_epsilon']:.3f} ({r['savings_factor']:.1f}x tighter)"
            )

    rate_gate = next(
        r for r in results if r["section"] == "charge_overhead" and r["accountant"] == "pure"
    )
    ratio_gate = max(
        (r for r in results if r["section"] == "gaussian_vs_laplace" and r["strategy"] == "prefix"),
        key=lambda r: r["n"],
    )
    print(
        f"\nGate: pure charge rate {rate_gate['charges_per_second']:.0f}/s "
        f"(threshold {min_rate:.0f}/s)"
    )
    print(
        f"Gate: prefix error ratio at n={ratio_gate['n']}: "
        f"{ratio_gate['error_ratio']:.1f}x (threshold {min_ratio:.1f}x)"
    )

    if not args.no_record:
        record_trajectory("accounting", "quick" if args.quick else "full", results)

    if rate_gate["charges_per_second"] < min_rate:
        print("FAIL: accountant charge-overhead regression", file=sys.stderr)
        return 1
    if ratio_gate["error_ratio"] < min_ratio:
        print("FAIL: Gaussian-vs-Laplace expected-error regression", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
