"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` module regenerates one table or figure of the paper's
evaluation.  Every module can be used two ways:

* ``pytest benchmarks/ --benchmark-only`` — runs scaled-down pytest-benchmark
  timings so the whole harness finishes in minutes;
* ``python benchmarks/bench_<experiment>.py [--full]`` — prints the table /
  series the paper reports (``--full`` uses the paper-scale parameters).

The engine micro-benchmarks time with :func:`_time` and append their runs to
``BENCH_<name>.json`` at the repo root through :func:`record_trajectory`,
which stamps each point with the commit and the machine that ran it.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from repro.dataset import Attribute, Relation, Schema
from repro.private import protect

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Thread-count variables of the BLAS / OpenMP runtimes numpy and scipy load;
#: a point records each as set, or None when unset.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


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


def _time(fn, repeats: int = 3) -> float:
    """Best wall time of ``repeats`` calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _git_sha() -> str | None:
    """HEAD's commit, suffixed ``-dirty`` when the measured code (``src`` or
    ``benchmarks``) differs from it; None outside a git checkout."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--", "src", "benchmarks"],
            cwd=REPO_ROOT, capture_output=True,
        ).returncode
    except (OSError, subprocess.CalledProcessError):
        return None
    return f"{sha}-dirty" if dirty else sha


def record_trajectory(name: str, mode: str, results: list[dict]) -> None:
    """Append one run to ``BENCH_<name>.json`` at the repo root.

    The file is ``{"benchmark": ..., "trajectory": [point, ...]}``; each
    point carries the run's ``mode`` and ``results`` plus when, at which
    commit and on what machine it was recorded.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    point = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "mode": mode,
        "results": results,
    }
    data = (
        json.loads(path.read_text())
        if path.exists()
        else {"benchmark": name, "trajectory": []}
    )
    data["trajectory"].append(point)
    path.write_text(json.dumps(data, indent=2) + "\n")
    print(f"Trajectory point appended to {path.name}")
