"""Benchmark of the durability layer: journal overhead, snapshot, recovery.

Three sections:

* ``journal_overhead`` — per-request service latency without a journal vs
  with a journal in each fsync mode (``never``, ``commit``, ``always``),
  measured on two request streams: ``Identity`` (the cheapest possible
  request, the worst case for any fixed per-request cost) and ``DAWA`` on a
  paper-scale 1024-bin domain (a representative data-dependent request).
  **Gated**: on the DAWA stream the
  default ``commit`` mode (flush per request, durable against process
  death) must cost less than ``--max-journal-overhead`` of the journal-free
  request latency.  The Identity floor and the ``always`` mode
  (``os.fsync`` per request, durable against power loss) are recorded
  ungated — the former is a microbenchmark denominator, the latter pays the
  device's sync latency by design and is an explicit opt-in.
* ``snapshot_restore`` — time to snapshot a warm session and to restore one
  from a snapshot plus a journal suffix (the recovery path a crashed
  process takes at startup).
* ``recovery_scaling`` — journal-only restore time vs journal length, i.e.
  how replay cost grows with the number of journaled requests.

Each run appends one trajectory point to ``BENCH_robustness.json`` at the
repo root.  CI runs ``--quick`` mode with loose thresholds so slow runners
do not flake.

Usage::

    python benchmarks/bench_robustness.py            # full sizes
    python benchmarks/bench_robustness.py --quick    # CI smoke mode
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.dataset import Attribute, Relation, Schema
from repro.durability import PrivacyJournal
from repro.service import PlanScheduler, QueryRequest, SessionManager

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_robustness.json"

DOMAIN = 64
#: Domain of the gated representative stream — the 1-D domain scale the
#: source paper's data-dependent experiments run at.
GATE_DOMAIN = 1024


def _time(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _relation(domain: int = DOMAIN) -> Relation:
    rng = np.random.default_rng(0)
    schema = Schema.build([Attribute("v", domain)])
    return Relation.from_histogram(schema, rng.integers(0, 50, size=domain))


def _request(session, index: int, plan: str = "Identity", domain: int = DOMAIN) -> QueryRequest:
    # Distinct epsilons keep every request a genuine cache miss.
    return QueryRequest(
        session.session_id,
        plan=plan,
        epsilon=0.1 + index * 1e-6,
        workload="prefix",
        workload_params={"n": domain},
        reuse=False,
    )


def _run_session(
    num_requests: int, journal=None, plan: str = "Identity", domain: int = DOMAIN
):
    manager = SessionManager()
    scheduler = PlanScheduler(manager)
    session = manager.create_session(
        "bench",
        _relation(domain),
        epsilon_total=num_requests * 0.2,
        seed=0,
        journal=journal,
    )
    for index in range(num_requests):
        scheduler.execute(_request(session, index, plan, domain))
    return scheduler, session


def bench_journal_overhead(
    plan: str, num_requests: int, repeats: int, tmpdir: Path, domain: int = DOMAIN
) -> list[dict]:
    """Per-request latency by journal mode, as overhead over no journal."""
    # Warm the plan/workload machinery so the first timed mode does not pay
    # one-time construction costs that would skew the baseline.
    _run_session(min(num_requests, 5), plan=plan, domain=domain)
    # This section carries the CI gate and shared runners are noisy on every
    # timescale, so the design is paired: one live session per mode, and each
    # request index executes across all four modes back-to-back.  Adjacent
    # samples see the same machine state, so a slow window inflates every
    # mode equally instead of masquerading as journal overhead; per-request
    # MEDIANS then shrug off the GC pauses and scheduler hiccups that a
    # min-of-runs design lets poison one whole mode.
    repeats = max(repeats, 3)
    modes = [("none", None), ("never", "never"), ("commit", "commit"), ("always", "always")]
    samples: dict[str, list[float]] = {label: [] for label, _ in modes}
    counter = iter(range(100_000))
    for _ in range(repeats):
        lanes = []
        for label, fsync in modes:
            journal = None
            if fsync is not None:
                journal = PrivacyJournal(
                    tmpdir / f"bench-{plan}-{label}-{next(counter)}.wal", fsync=fsync
                )
            manager = SessionManager()
            scheduler = PlanScheduler(manager)
            session = manager.create_session(
                "bench",
                _relation(domain),
                epsilon_total=num_requests * 0.2,
                seed=0,
                journal=journal,
            )
            lanes.append((label, journal, scheduler, session))
        for index in range(num_requests):
            for label, journal, scheduler, session in lanes:
                request = _request(session, index, plan, domain)
                start = time.perf_counter()
                scheduler.execute(request)
                samples[label].append(time.perf_counter() - start)
        for _, journal, _, _ in lanes:
            if journal is not None:
                journal.close()
    baseline_seconds = statistics.median(samples["none"])
    results = []
    for label, _ in modes:
        per_request = statistics.median(samples[label])
        # Overhead from the median of paired differences (mode minus the
        # no-journal lane at the same request index, microseconds apart in
        # wall time), not from a ratio of two independent medians — the
        # pairing cancels whatever drift survives the interleaving.
        delta = statistics.median(
            m - n for m, n in zip(samples[label], samples["none"])
        )
        results.append(
            {
                "section": "journal_overhead",
                "plan": plan,
                "domain": domain,
                "mode": label,
                "num_requests": num_requests,
                "request_seconds": per_request,
                "overhead_fraction": delta / baseline_seconds if label != "none" else 0.0,
            }
        )
    return results


def bench_snapshot_restore(num_requests: int, repeats: int, tmpdir: Path) -> list[dict]:
    """Cost of snapshotting a warm session and of restoring after a crash."""
    path = tmpdir / "snapshot-bench.wal"
    journal = PrivacyJournal(path, fsync="commit")
    scheduler, session = _run_session(num_requests, journal=journal)
    snap_seconds = _time(
        lambda: scheduler.snapshot_session(session.session_id), repeats
    )
    snapshot = scheduler.snapshot_session(session.session_id)
    snapshot_bytes = len(json.dumps(snapshot))
    journal.close()

    relation = _relation()

    def restore():
        fresh = PlanScheduler(SessionManager())
        fresh.restore_session(relation, snapshot=snapshot, journal=PrivacyJournal(path))

    restore_seconds = _time(restore, repeats)
    return [
        {
            "section": "snapshot_restore",
            "num_requests": num_requests,
            "snapshot_seconds": snap_seconds,
            "snapshot_bytes": snapshot_bytes,
            "restore_seconds": restore_seconds,
        }
    ]


def bench_recovery_scaling(sizes: list[int], repeats: int, tmpdir: Path) -> list[dict]:
    """Journal-only restore time as a function of journal length."""
    results = []
    relation = _relation()
    for size in sizes:
        path = tmpdir / f"recovery-{size}.wal"
        journal = PrivacyJournal(path, fsync="commit")
        _run_session(size, journal=journal)
        journal.close()
        records = PrivacyJournal(path).seq

        def restore():
            fresh = PlanScheduler(SessionManager())
            fresh.restore_session(relation, journal=PrivacyJournal(path))

        seconds = _time(restore, repeats)
        results.append(
            {
                "section": "recovery_scaling",
                "num_requests": size,
                "journal_records": records,
                "restore_seconds": seconds,
                "records_per_second": records / max(seconds, 1e-12),
            }
        )
    return results


def record_trajectory(point: dict) -> None:
    """Append this run to the BENCH_robustness.json trajectory file."""
    if TRAJECTORY_PATH.exists():
        data = json.loads(TRAJECTORY_PATH.read_text())
    else:
        data = {"benchmark": "robustness", "trajectory": []}
    data["trajectory"].append(point)
    TRAJECTORY_PATH.write_text(json.dumps(data, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI smoke mode: fewer sizes/repeats")
    parser.add_argument(
        "--max-journal-overhead",
        type=float,
        default=None,
        help="fail if the default (fsync='commit') journal costs more than "
        "this fraction of journal-free DAWA request latency (default: 0.10, "
        "both modes — the margin is wide enough for noisy CI hardware)",
    )
    parser.add_argument(
        "--no-record", action="store_true", help="skip appending to BENCH_robustness.json"
    )
    args = parser.parse_args()

    if args.quick:
        repeats = 1
        num_requests = 60
        recovery_sizes = [20, 60]
    else:
        repeats = 3
        num_requests = 300
        recovery_sizes = [50, 150, 300]

    max_overhead = (
        args.max_journal_overhead if args.max_journal_overhead is not None else 0.10
    )

    with tempfile.TemporaryDirectory(prefix="bench-robustness-") as tmp:
        tmpdir = Path(tmp)
        results = bench_journal_overhead("Identity", num_requests, repeats, tmpdir)
        results += bench_journal_overhead(
            "DAWA",
            max(num_requests // 4, 15),
            repeats,
            tmpdir,
            domain=GATE_DOMAIN,
        )
        results += bench_snapshot_restore(num_requests, repeats, tmpdir)
        results += bench_recovery_scaling(recovery_sizes, repeats, tmpdir)

    print(f"\nRobustness benchmark ({'quick' if args.quick else 'full'} mode)\n")
    for r in results:
        if r["section"] == "journal_overhead":
            print(
                f"  journal_overhead plan={r['plan']:8s} n={r['domain']:4d} "
                f"mode={r['mode']:7s} {r['request_seconds'] * 1e6:8.1f} us/request "
                f"(+{r['overhead_fraction'] * 100:6.2f}%)"
            )
        elif r["section"] == "snapshot_restore":
            print(
                f"  snapshot_restore snapshot {r['snapshot_seconds'] * 1e3:7.2f} ms "
                f"({r['snapshot_bytes']} bytes), restore "
                f"{r['restore_seconds'] * 1e3:7.2f} ms over {r['num_requests']} requests"
            )
        elif r["section"] == "recovery_scaling":
            print(
                f"  recovery_scaling {r['journal_records']:5d} records -> "
                f"{r['restore_seconds'] * 1e3:7.2f} ms "
                f"({r['records_per_second']:8.0f} records/s)"
            )

    commit = next(
        r
        for r in results
        if r["section"] == "journal_overhead"
        and r["mode"] == "commit"
        and r["plan"] == "DAWA"
    )
    print(
        f"\nGate: default-journal overhead on DAWA@{GATE_DOMAIN} requests "
        f"{commit['overhead_fraction'] * 100:.2f}% (threshold {max_overhead * 100:.1f}%)"
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

    if commit["overhead_fraction"] > max_overhead:
        print(
            "FAIL: the per-request journal commit is no longer cheap in its default mode",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
