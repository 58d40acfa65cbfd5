"""Steadiness and determinism of the benchmark, run by run.

Runs ``run.py`` once per seed on each chosen workload, one process at a
time, and reports for every metric its median and its spread: the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median.  The spread is compared with the metric's ``bound``
from ``BENCHMARK.json``.

It also re-runs the first seed and requires the exact per-pass record
(request, hit, charge, measurement and journal-record counts, ε spent,
workload RMSE and the sha256 of every released answer) to repeat bit for
bit; the exit status is non-zero when it does not.

Usage (from the repository root)::

    python3 perfbench/steady.py --workloads paper-1d --seeds 5
    python3 perfbench/steady.py --seeds 10 --out perfbench/steadiness.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: seeds run are FIRST_SEED, FIRST_SEED + 1, ...
FIRST_SEED = 101


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The result and the info record of one untraced benchmark run."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    report, status = {}, 0
    for workload in args.workloads:
        metrics: dict[str, list[float]] = {}
        first_exact = None
        for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
            result, info = run_once(workload, seed, config["run_seconds"])
            first_exact = first_exact or info["exact"]
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: passes={info['passes']}", file=sys.stderr)
        entry = {name: spread(values) for name, values in metrics.items()}
        _, info = run_once(workload, FIRST_SEED, config["run_seconds"])
        entry["repeat_exact"] = info["exact"] == first_exact
        status |= not entry["repeat_exact"]
        report[workload] = entry
        report["machine"] = info["machine"]
        for name, stats in entry.items():
            if name == "repeat_exact":
                print(f"{workload:15s} exact record repeats: {stats}")
                continue
            bound = bounds.get(name)
            flag = ""
            if bound is not None and stats["spread"] > bound / 3:
                flag = "  <-- above a third of its bound"
            print(
                f"{workload:15s} {name:38s} median {stats['median']:12.6g} "
                f"spread {100 * stats['spread']:6.2f}%  bound {bound}{flag}"
            )
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
