"""Service load benchmark: the inline and thread backends under a zipfian mix.

A zipfian load generator drives a :class:`~repro.service.SessionManager`
full of tenant sessions through both executor backends and records latency
percentiles, throughput and cache hit rates.  Every request pays a fixed
**synthetic I/O stall** (a pure-delay fault armed at the ``scheduler.worker``
seam) standing in for the per-request network/disk wait a deployed service
sees.  The thread backend's speedup over inline is **overlap of that
injected stall**, not compute speed: plan compute itself does not run any
faster on threads.

Per backend, two timed waves: an *uncached* wave (one request per (session,
variant), all budget-spending) followed by a *zipfian* wave
(popularity-skewed replays, all answered from the measurement cache and
asserted budget-free) — reporting p50/p99 latency, throughput, uncached and
cached throughput, and cache hit rate.  **Gated** (both modes): answers are
**byte-identical** across backends and p99 stays under a loose ceiling.
**Gated** (full mode): the thread backend's stall overlap must lift
throughput to ``--min-speedup`` (default 2x) of inline.

Each run appends one trajectory point to ``BENCH_service_scale.json`` at the
repo root.  CI runs ``--quick`` mode (smaller mix, no speedup gate).

Usage::

    python benchmarks/bench_service_scale.py            # full mode
    python benchmarks/bench_service_scale.py --quick    # CI smoke mode
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from repro.durability import FaultInjector
from repro.service import PlanScheduler, QueryRequest, SessionManager, reconcile

try:
    from .conftest import vector_relation
except ImportError:  # pragma: no cover
    from conftest import vector_relation

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_service_scale.json"

DOMAIN = 64
#: distinct query variants per session (distinct epsilons → distinct answers).
VARIANTS = 4
#: zipf exponent of the session-popularity skew (s > 1: a few hot sessions).
ZIPF_S = 1.2


# ----------------------------------------------------------------------------
# Load generation.
# ----------------------------------------------------------------------------
def build_manager(num_sessions: int, domain: int = DOMAIN) -> SessionManager:
    """A fresh manager with ``num_sessions`` identically-seeded tenant sessions.

    Session ids and seeds are fixed so every backend run sees the *same*
    sessions — the precondition for the byte-identity gate.
    """
    rng = np.random.default_rng(0)
    manager = SessionManager()
    for index in range(num_sessions):
        manager.create_session(
            f"tenant{index}",
            vector_relation(rng.integers(0, 100, size=domain).astype(np.float64)),
            epsilon_total=10_000.0,
            seed=index,
            session_id=f"tenant{index}-s1",
        )
    return manager


def _variant_request(session_id: str, variant: int, domain: int) -> QueryRequest:
    # Even variants take the cheapest plan; odd variants run a least-squares
    # plan whose Gram factorisation is a shared artifact.
    return QueryRequest(
        session_id,
        plan="Identity" if variant % 2 == 0 else "Hierarchical (H2)",
        epsilon=0.01 + variant * 1e-3,
        workload="prefix",
        workload_params={"n": domain},
        reuse=True,
    )


def zipfian_mix(
    session_ids: list[str], num_requests: int, domain: int = DOMAIN
) -> tuple[list[QueryRequest], list[QueryRequest]]:
    """The two timed waves: unique uncached requests, then skewed replays.

    The replay wave only references (session, variant) pairs the first wave
    already answered, so no two in-flight requests ever race to *compute*
    the same cache entry — the precondition for byte-identical batches on a
    concurrent backend (see ``PlanScheduler.execute_batch``).
    """
    uncached = [
        _variant_request(session_id, variant, domain)
        for session_id in session_ids
        for variant in range(VARIANTS)
    ]
    rng = np.random.default_rng(42)
    ranks = np.arange(1, len(session_ids) + 1, dtype=np.float64)
    popularity = ranks**-ZIPF_S / np.sum(ranks**-ZIPF_S)
    sessions = rng.choice(len(session_ids), size=num_requests, p=popularity)
    variants = rng.integers(0, VARIANTS, size=num_requests)
    replays = [
        _variant_request(session_ids[s], int(v), domain)
        for s, v in zip(sessions, variants)
    ]
    return uncached, replays


def _percentiles(responses) -> tuple[float, float]:
    latencies = np.sort([response.elapsed_seconds for response in responses])
    return (
        float(np.percentile(latencies, 50)),
        float(np.percentile(latencies, 99)),
    )


def run_backend(
    backend: str,
    num_sessions: int,
    num_requests: int,
    stall_seconds: float,
    domain: int = DOMAIN,
) -> dict:
    """Drive one backend through both waves; returns metrics + answer digest."""
    manager = build_manager(num_sessions, domain)
    session_ids = [f"tenant{index}-s1" for index in range(num_sessions)]
    faults = FaultInjector()
    if stall_seconds > 0:
        # Pure delay at the per-request seam: the synthetic I/O wait every
        # request pays and concurrent backends overlap.
        faults.arm("scheduler.worker", delay=stall_seconds, times=10**9)
    scheduler = PlanScheduler(
        manager, executor=backend, max_workers=8, fault_injector=faults
    )
    uncached, replays = zipfian_mix(session_ids, num_requests, domain)
    try:
        start = time.perf_counter()
        first = scheduler.execute_batch(uncached)
        uncached_seconds = time.perf_counter() - start
        budget_before = {s.session_id: s.budget_consumed() for s in manager.sessions()}
        start = time.perf_counter()
        second = scheduler.execute_batch(replays)
        cached_seconds = time.perf_counter() - start
    finally:
        scheduler.shutdown()

    responses = first + second
    assert all(response.cached for response in second)
    budget_after = {s.session_id: s.budget_consumed() for s in manager.sessions()}
    assert budget_after == budget_before, "cached wave must be budget-free"
    for session in manager.sessions():
        assert reconcile(session)["exact"]

    cache_stats = scheduler.measurement_cache.stats
    p50, p99 = _percentiles(responses)
    total = len(responses)
    result = {
        "section": "load",
        "backend": backend,
        "num_sessions": num_sessions,
        "stall_seconds": stall_seconds,
        "requests": total,
        "throughput_rps": total / (uncached_seconds + cached_seconds),
        "uncached_rps": len(first) / uncached_seconds,
        "cached_rps": len(second) / cached_seconds,
        "p50_seconds": p50,
        "p99_seconds": p99,
        "cache_hit_rate": cache_stats["hits"] / max(cache_stats["hits"] + cache_stats["misses"], 1),
    }
    # The digest the byte-identity gate compares across backends: the
    # *answers* (id, noise seed, released bytes).  Per-request ε deltas are
    # excluded — concurrent same-session requests may acquire the session
    # lock in any order, and the ledger's compensated sums round differently
    # per order, shifting deltas by one ulp; the totals are compared
    # separately below.
    digest = [
        (response.request_id, response.seed,
         np.asarray(response.payload).tobytes())
        for response in responses
    ]
    result["budget_totals"] = {
        session.session_id: session.budget_consumed()
        for session in manager.sessions()
    }
    return result, digest


def record_trajectory(point: dict) -> None:
    """Append this run to the BENCH_service_scale.json trajectory file."""
    if TRAJECTORY_PATH.exists():
        data = json.loads(TRAJECTORY_PATH.read_text())
    else:
        data = {"benchmark": "service_scale", "trajectory": []}
    data["trajectory"].append(point)
    TRAJECTORY_PATH.write_text(json.dumps(data, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke mode: smaller mix, shorter stall, no speedup gate",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail (full mode) unless the thread backend, overlapping the "
        "injected stall, beats the inline baseline's throughput by this "
        "factor (default 2.0; quick mode never gates speedup — one noisy CI "
        "core proves nothing)",
    )
    parser.add_argument(
        "--max-p99", type=float, default=1.0,
        help="fail if any backend's p99 request latency exceeds this (seconds)",
    )
    parser.add_argument(
        "--no-record", action="store_true",
        help="skip appending to BENCH_service_scale.json",
    )
    args = parser.parse_args()

    backends = ["inline", "thread"]
    if args.quick:
        num_sessions, num_requests, stall = 8, 48, 0.002
    else:
        num_sessions, num_requests, stall = 16, 160, 0.010
    min_speedup = args.min_speedup if args.min_speedup is not None else 2.0

    results, digests = [], {}
    for backend in backends:
        result, digest = run_backend(backend, num_sessions, num_requests, stall)
        results.append(result)
        digests[backend] = digest

    identical = all(digests[b] == digests["inline"] for b in backends)
    baseline = results[0]
    budgets_close = all(
        math.isclose(spent, baseline["budget_totals"][session_id], rel_tol=1e-9)
        for r in results
        for session_id, spent in r["budget_totals"].items()
    )
    for result in results:
        # Overlap of the injected per-request stall, not compute speed.
        result["stall_overlap_speedup"] = (
            result["throughput_rps"] / baseline["throughput_rps"]
        )
        result["byte_identical_to_inline"] = digests[result["backend"]] == digests["inline"]

    print(f"\nService load benchmark ({'quick' if args.quick else 'full'} mode)")
    print(
        f"  {num_sessions} sessions, "
        f"{num_sessions * VARIANTS} uncached + {num_requests} zipfian replays, "
        f"{stall * 1e3:.0f} ms synthetic I/O stall per request\n"
    )
    for r in results:
        print(
            f"  load {r['backend']:7s} {r['throughput_rps']:7.1f} req/s "
            f"({r['stall_overlap_speedup']:.2f}x inline from stall overlap)  "
            f"p50 {r['p50_seconds'] * 1e3:6.1f} ms  p99 {r['p99_seconds'] * 1e3:6.1f} ms  "
            f"cache-hits={r['cache_hit_rate'] * 100:.0f}%"
        )

    failures = []
    if not identical:
        failures.append("answers are not byte-identical across backends")
    if not budgets_close:
        failures.append("per-session budget totals diverge across backends")
    for result in results:
        if result["p99_seconds"] > args.max_p99:
            failures.append(
                f"{result['backend']}: p99 {result['p99_seconds']:.3f}s "
                f"exceeds {args.max_p99:.3f}s"
            )
        if (
            not args.quick
            and result["backend"] != "inline"
            and result["stall_overlap_speedup"] < min_speedup
        ):
            failures.append(
                f"{result['backend']}: {result['stall_overlap_speedup']:.2f}x inline "
                f"is below the {min_speedup:.1f}x gate"
            )

    print(
        f"\nGates: byte-identical={identical}, p99<={args.max_p99:.2f}s"
        + ("" if args.quick else f", stall-overlap speedup>={min_speedup:.1f}x")
    )

    if not args.no_record:
        record_trajectory(
            {
                "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "mode": "quick" if args.quick else "full",
                "results": results,
            }
        )
        print(f"Trajectory point appended to {TRAJECTORY_PATH.name}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ----------------------------------------------------------------------------
# pytest-benchmark entry points.
# ----------------------------------------------------------------------------
def test_benchmark_uncached_throughput(benchmark):
    manager = build_manager(4, domain=512)
    scheduler = PlanScheduler(manager, executor="thread", max_workers=4)
    session_ids = [session.session_id for session in manager.sessions()]
    counter = iter(range(100_000))

    def wave():
        scheduler.execute_batch(
            [
                QueryRequest(
                    session_id,
                    plan="Identity",
                    epsilon=0.01 + next(counter) * 1e-6,
                    workload="prefix",
                    workload_params={"n": 512},
                    reuse=False,
                )
                for session_id in session_ids
                for _ in range(4)
            ]
        )

    benchmark(wave)
    scheduler.shutdown()


def test_benchmark_cached_throughput(benchmark):
    manager = build_manager(4, domain=512)
    scheduler = PlanScheduler(manager, executor="thread", max_workers=4)
    session_ids = [session.session_id for session in manager.sessions()]
    warm = [_variant_request(session_id, 0, 512) for session_id in session_ids]
    scheduler.execute_batch(warm)
    benchmark(lambda: scheduler.execute_batch(warm * 4))
    scheduler.shutdown()


def test_cached_path_spends_no_budget():
    """Qualitative claim: replayed requests are budget-free."""
    manager = build_manager(2, domain=256)
    scheduler = PlanScheduler(manager, executor="thread", max_workers=2)
    session_ids = [session.session_id for session in manager.sessions()]
    warm = [_variant_request(session_id, 0, 256) for session_id in session_ids]
    scheduler.execute_batch(warm)
    consumed = [session.budget_consumed() for session in manager.sessions()]
    responses = scheduler.execute_batch(warm * 4)
    assert all(response.cached for response in responses)
    assert [session.budget_consumed() for session in manager.sessions()] == consumed
    scheduler.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
