"""End-to-end benchmark of the private query service, with per-layer traces.

One closed-loop client drives the public service API —
``SessionManager.create_session`` → ``PlanScheduler.execute`` →
``restore_session`` — through one workload (see ``workloads.py``):

* ``serve-replay``   — 8 tenants at n=256, Zipf popularity, 70% replays;
* ``paper-1d``       — the ten DPBench shapes at n=4096, paper plans.

A run repeats, for ``--seconds`` (at least the workload's fewest passes):

1. **set-up**: dataset generation, a fresh artifact cache warmed by one
   request on a separate session for each distinct (plan, workload) pair of
   the pass, and session and journal creation;
2. **pass**: the workload's fixed request list, on those sessions;
3. **crash and restore**: the live service is dropped and its sessions are
   recovered from the journal files alone into a fresh manager, a few times
   (twice on serve-replay, six times on paper-1d), then
   a pre-crash request is replayed on every restored session.

``setup_s`` is the median of the run's set-ups: with one before every pass,
they sample the machine over the whole run like the requests do.
``restore_s`` is the fastest of the run's restores, not their median: a
restore takes 50-100 ms, and on a shared two-core machine whose speed
switches between modes about 1.4x apart for seconds at a time, the median
of such short samples lands in whichever mode held more of the run (26%
spread over ten runs) while the minimum tracks the restore's own cost.

Every pass starts from the same warm state, so no pass uses an artifact
(a Gram factor, say) built by an earlier one, and neither the per-pass
counts nor the latencies depend on how many passes the machine's speed
allowed.

The **checks**: every session reconciles exactly after each pass and each
restore, post-restore replays are byte-identical and spend zero ε, spend
stays within budget, no request fails, every pass repeats the same counts
and answer digest, and the latency percentiles sit at least 10 percentile
points from any latency step between request classes.

With ``--trace 0`` the timed phase runs untraced and the end-to-end metrics
are printed.  With ``--trace 1`` an untraced half and a traced half run back
to back; the traced half passes a :class:`repro.telemetry.Tracer` to the
scheduler, drains it after every request and splits the request time into
per-layer self times (``layers.py``); the per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the request counts, the class shares and the exact
per-pass counts.  The process exits non-zero when any check fails.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-replay --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45   # every workload, both traces
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: minimum distance, in percentile points, between a reported percentile
#: and any boundary between request classes.
CLASS_MARGIN = 10.0
#: latency ratio between neighbouring classes that makes a class boundary.
CLASS_STEP = 1.5


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)
    classes: list = field(default_factory=list)
    cached: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    #: counts and values that must repeat exactly from pass to pass.
    exact: dict = field(default_factory=dict)
    setup_seconds: float = 0.0
    journal_bytes: int = 0
    commit_seconds: float = 0.0
    commits: int = 0
    artifact_hits: int = 0
    artifact_lookups: int = 0
    #: per session: a fresh request and the payload bytes it released.
    probes: dict = field(default_factory=dict)
    restore_seconds: list = field(default_factory=list)
    restore_records: int = 0


class Bench:
    """One workload under one seed: set-up, passes, restores, checks."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []
        self._opened = 0
        self.stream = build_stream(name, seed)
        self.truth = self.compute_truth()

    # ------------------------------------------------------------------
    # Set-up.
    # ------------------------------------------------------------------
    def setup(self, tracer=None):
        """Build everything a pass needs, from scratch: the datasets, a
        warmed artifact cache and the pass's journaled sessions.  Returns
        the pass's scheduler and the seconds the set-up took."""
        started = time.perf_counter()
        stream = build_stream(self.name, self.seed)
        artifacts = ArtifactCache()
        warm_manager = SessionManager()
        warm = PlanScheduler(warm_manager, artifact_cache=artifacts, executor="inline")
        warm_manager.create_session(
            "warmup", stream.tenants[0].relation, 1e3, seed=0, session_id="warmup",
            journal=PrivacyJournal(None),
        )
        for request in stream.warmup:
            warm.execute(replace(request, session_id="warmup", epsilon=1.0, reuse=False))
        warm.shutdown()

        self._opened += 1
        manager = SessionManager()
        scheduler = PlanScheduler(
            manager, artifact_cache=artifacts, executor="inline", tracer=tracer
        )
        for tenant in stream.tenants:
            path = self.workdir / f"pass{self._opened}-{tenant.session_id}.wal"
            manager.create_session(
                tenant.session_id,
                tenant.relation,
                tenant.epsilon_total,
                seed=tenant.base_seed,
                session_id=tenant.session_id,
                journal=PrivacyJournal(path),
            )
        return scheduler, time.perf_counter() - started

    def compute_truth(self) -> dict:
        """True workload answers per (session, workload), for the RMSE."""
        truth, matrices = {}, ArtifactCache()
        tenants = {tenant.session_id: tenant for tenant in self.stream.tenants}
        for request in self.stream.requests:
            key = (request.session_id, request.cache_key()[3])
            if key not in truth:
                matrix = matrices.workload(request.workload, request.workload_params)
                truth[key] = matrix.matvec(tenants[request.session_id].relation.vectorize())
        return truth

    # ------------------------------------------------------------------
    # Timed phase.
    # ------------------------------------------------------------------
    def timed_phase(self, seconds: float, tracer=None, tally=None) -> list[PassResult]:
        """Whole set-up, pass and restore rounds — the workload's minimum,
        then more as long as the next one is expected to end within
        ``seconds``."""
        results = []
        started = time.perf_counter()
        while len(results) < self.stream.min_passes or (
            time.perf_counter() - started
        ) * (len(results) + 1) / len(results) <= seconds:
            # The previous round's caches are gone before this one builds its own.
            gc.collect()
            scheduler, setup_seconds = self.setup(tracer)
            result = self.run_pass(scheduler, tracer, tally)
            result.setup_seconds = setup_seconds
            self.crash_and_restore(scheduler, result)
            results.append(result)
            del scheduler
        return results

    def run_pass(self, scheduler, tracer, tally) -> PassResult:
        result = PassResult()
        digest = hashlib.sha256()
        squared_error, answer_count, spent = 0.0, 0, []
        artifact_before = dict(scheduler.artifact_cache.stats)
        traced_before = dict(tally.counts) if tally is not None else {}
        clock = time.perf_counter
        for request, cls in zip(self.stream.requests, self.stream.classes):
            started = clock()
            try:
                response = scheduler.execute(request)
            except Exception as exc:  # a failed request is counted, not fatal
                result.failures.append(f"{type(exc).__name__}: {exc}")
                if tracer is not None:
                    tracer.drain()
                continue
            elapsed = clock() - started
            result.latencies.append(elapsed)
            result.classes.append(cls)
            result.cached.append(response.cached)
            payload = response.payload
            digest.update(payload.tobytes())
            error = payload - self.truth[(request.session_id, request.cache_key()[3])]
            squared_error += float(error @ error)
            answer_count += payload.size
            spent.append(response.epsilon_spent)
            if not response.cached:
                result.probes[request.session_id] = (request, payload.tobytes())
            if tally is not None:
                tally.add(tracer.drain(), elapsed)
        sessions = scheduler.manager.sessions()
        for session in sessions:
            report = reconcile(session)
            if not report["exact"]:
                self.problems.append(f"{session.session_id} does not reconcile after a pass")
            if session.budget_consumed() > session.epsilon_total:
                self.problems.append(f"{session.session_id} overspent its budget")
        for histogram in scheduler.metrics.instruments()[2]:
            if histogram.name == "service_journal_commit_seconds":
                result.commit_seconds += histogram.total
                result.commits += histogram.count
        for session in sessions:
            result.journal_bytes += session.journal.path.stat().st_size
        artifact_after = scheduler.artifact_cache.stats
        result.artifact_hits = artifact_after["hits"] - artifact_before["hits"]
        result.artifact_lookups = result.artifact_hits + (
            artifact_after["misses"] - artifact_before["misses"]
        )
        snapshots = [session.budget_snapshot() for session in sessions]
        result.exact = {
            "requests": len(self.stream.requests),
            "answers": len(result.latencies),
            "replays": sum(result.cached),
            "charges": sum(s.num_charges for s in snapshots),
            "measurements": sum(s.num_measurements for s in snapshots),
            "journal_records": sum(len(session.journal) for session in sessions),
            "artifact_lookups": result.artifact_lookups,
            "artifact_hits": result.artifact_hits,
            "epsilon_spent": math.fsum(spent),
            "workload_rmse": math.sqrt(squared_error / max(answer_count, 1)),
            "answer_digest": digest.hexdigest(),
        }
        if tally is not None:
            for key in ("solves", "measure_calls", "gram_builds", "gram_lookups", "gram_hits"):
                result.exact[key] = tally.counts[key] - traced_before.get(key, 0)
        return result

    # ------------------------------------------------------------------
    # Restore.
    # ------------------------------------------------------------------
    def crash_and_restore(self, live, result: PassResult) -> None:
        """Drop a pass's live service, keeping only its journal files, then
        recover every session from the journals alone into a fresh manager,
        as many times as the workload asks."""
        paths = {}
        for session in live.manager.sessions():
            session.journal.close()
            paths[session.session_id] = session.journal.path
        live.shutdown()
        for attempt in range(self.stream.restores):
            manager = SessionManager()
            scheduler = PlanScheduler(manager, executor="inline")
            journals = []
            started = time.perf_counter()
            for tenant in self.stream.tenants:
                journal = PrivacyJournal(paths[tenant.session_id])
                journals.append(journal)
                scheduler.restore_session(tenant.relation, journal=journal)
            result.restore_seconds.append(time.perf_counter() - started)
            result.restore_records = sum(len(journal) for journal in journals)
            for session in manager.sessions():
                if not reconcile(session)["exact"]:
                    self.problems.append(f"{session.session_id} does not reconcile after restore")
            if attempt == self.stream.restores - 1:
                # Replays append audit events: only after the timed restores.
                self.replay_after_restore(scheduler, result)
            for journal in journals:
                journal.close()
            scheduler.shutdown()
        for path in paths.values():
            path.unlink()

    def replay_after_restore(self, scheduler, last: PassResult) -> None:
        for session_id, (request, payload) in sorted(last.probes.items()):
            session = scheduler.manager.get(session_id)
            consumed = session.budget_consumed()
            response = scheduler.execute(request)
            if not response.cached or response.epsilon_spent != 0.0:
                self.problems.append(f"{session_id}: post-restore replay spent budget")
            if response.payload.tobytes() != payload:
                self.problems.append(f"{session_id}: post-restore replay is not byte-identical")
            if session.budget_consumed() != consumed or not reconcile(session)["exact"]:
                self.problems.append(f"{session_id}: ledger moved on a post-restore replay")

    # ------------------------------------------------------------------
    # Checks over passes.
    # ------------------------------------------------------------------
    def check_passes(self, passes: list[PassResult]) -> None:
        for result in passes:
            for failure in result.failures:
                self.problems.append(f"request failed: {failure}")
        # Every pass repeats the first on the keys they share; a traced pass
        # also repeats the first traced pass on the traced counts.
        first = passes[0].exact
        for result in passes[1:]:
            exact = result.exact
            same_kind = next(p.exact for p in passes if p.exact.keys() == exact.keys())
            shared = first.keys() & exact.keys()
            if same_kind != exact or any(first[key] != exact[key] for key in shared):
                self.problems.append("a pass did not repeat the first pass's counts and digest")
                break

    def class_table(self, passes: list[PassResult]) -> tuple[dict, list[float]]:
        """Each class's share and median latency, and the class boundaries
        (in percentile points) once classes are sorted by median latency.

        A boundary counts only where the latency steps up by at least
        ``CLASS_STEP``: classes of about equal latency (Privelet, HB and DAWA
        at n=4096) swap places from run to run, and a percentile moving
        between them moves no latency.
        """
        latencies = {}
        for result in passes:
            for cls, seconds in zip(result.classes, result.latencies):
                latencies.setdefault(cls, []).append(seconds)
        total = sum(len(v) for v in latencies.values())
        table = {
            cls: {
                "share": len(v) / total,
                "p50_ms": 1e3 * statistics.median(v),
                "requests": len(v),
            }
            for cls, v in latencies.items()
        }
        ordered = sorted(table.values(), key=lambda row: row["p50_ms"])
        boundaries, cumulative = [], 0.0
        for lower, upper in zip(ordered, ordered[1:]):
            cumulative += lower["share"]
            if upper["p50_ms"] >= CLASS_STEP * lower["p50_ms"]:
                boundaries.append(100.0 * cumulative)
        return table, boundaries

    def check_placement(self, boundaries: list[float]) -> None:
        for pct in (50.0, self.stream.tail_pct):
            for boundary in boundaries:
                if abs(pct - boundary) < CLASS_MARGIN:
                    self.problems.append(
                        f"p{pct:g} lies within {CLASS_MARGIN:g} points of a class "
                        f"boundary at p{boundary:.1f}"
                    )


# ----------------------------------------------------------------------------
# Metrics.
# ----------------------------------------------------------------------------
def _flat(passes, attr):
    return [value for result in passes for value in getattr(result, attr)]


def _throughput(passes) -> float:
    return len(_flat(passes, "latencies")) / math.fsum(_flat(passes, "latencies"))


def end_to_end_metrics(bench, passes) -> dict:
    latencies_ms = [1e3 * s for s in _flat(passes, "latencies")]
    attempted = sum(len(bench.stream.requests) for _ in passes)
    answers = len(latencies_ms)
    exact = passes[0].exact
    # The median is taken per pass and averaged over the passes.  A pass
    # lasts a few seconds, about as long as the shared machine stays in one
    # of its speed modes (about 1.4x apart), so a run's pooled median lands
    # in whichever mode held more of its requests and flipped by 26% over
    # ten runs; the mean of the passes' medians averages the modes, as the
    # throughput does.
    p50_ms = statistics.fmean(
        _percentile([1e3 * s for s in result.latencies], 50.0) for result in passes
    )
    return {
        "throughput_rps": (_throughput(passes), "1/s"),
        "latency_p50_ms": (p50_ms, "ms"),
        "latency_tail_ms": (_percentile(latencies_ms, bench.stream.tail_pct), "ms"),
        "answered_share": (answers / attempted, "share"),
        "setup_s": (statistics.median(r.setup_seconds for r in passes), "s"),
        "restore_s": (min(_flat(passes, "restore_seconds")), "s"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "epsilon_per_answer": (exact["epsilon_spent"] / exact["answers"], "epsilon/answer"),
        "workload_rmse": (exact["workload_rmse"], "count"),
    }


def per_layer_metrics(untraced, traced, tally) -> dict:
    per_pass = traced[0].exact
    requests = per_pass["requests"]
    n = tally.requests
    cached = _flat(traced, "cached")
    latencies = _flat(traced, "latencies")
    replay_ms = [1e3 * s for s, c in zip(latencies, cached) if c]
    fresh_ms = [1e3 * s for s, c in zip(latencies, cached) if not c]
    # Cache counts are per pass: every traced pass repeats them exactly.
    gram_lookups, gram_hits = per_pass["gram_lookups"], per_pass["gram_hits"]
    workload_lookups = per_pass["artifact_lookups"] - gram_lookups
    commit_seconds = sum(r.commit_seconds for r in traced)
    commits = sum(r.commits for r in traced)
    return {
        "service.self_ms": (tally.per_request_ms("service"), "ms"),
        "service.outside_span_ms": (1e3 * tally.outside_seconds / n, "ms"),
        "measurement_cache.hit_ratio": (per_pass["replays"] / requests, "ratio"),
        "measurement_cache.lookups": (requests, "count"),
        "measurement_cache.replay_ms_p50": (_percentile(replay_ms, 50.0), "ms"),
        "measurement_cache.fresh_ms_p50": (_percentile(fresh_ms, 50.0), "ms"),
        "artifact_cache.gram_hit_ratio": (_ratio(gram_hits, gram_lookups), "ratio"),
        "artifact_cache.gram_lookups_per_req": (gram_lookups / requests, "count/req"),
        "artifact_cache.workload_hit_ratio": (
            _ratio(per_pass["artifact_hits"] - gram_hits, workload_lookups), "ratio"
        ),
        "artifact_cache.workload_lookups_per_req": (workload_lookups / requests, "count/req"),
        "plans.self_ms": (tally.per_request_ms("plans"), "ms"),
        "plans.partition_ms": (tally.per_request_ms("stage.partition"), "ms"),
        "plans.select_ms": (tally.per_request_ms("stage.select"), "ms"),
        "plans.measure_ms": (tally.per_request_ms("stage.measure"), "ms"),
        "plans.infer_ms": (tally.per_request_ms("stage.infer"), "ms"),
        "private.measure_ms": (tally.per_request_ms("private.measure"), "ms"),
        "private.transform_ms": (tally.per_request_ms("private.transform"), "ms"),
        "private.measure_calls_per_req": (per_pass["measure_calls"] / requests, "count/req"),
        "private.charges_per_req": (per_pass["charges"] / requests, "count/req"),
        "inference.solve_ms": (tally.per_request_ms("inference"), "ms"),
        "inference.solves_per_req": (per_pass["solves"] / requests, "count/req"),
        "inference.gram_builds": (per_pass["gram_builds"], "count/pass"),
        "other.self_ms": (tally.per_request_ms("other"), "ms"),
        "durability.commit_ms": (1e3 * _ratio(commit_seconds, commits), "ms"),
        "durability.records_per_req": (per_pass["journal_records"] / requests, "count/req"),
        "durability.bytes_per_req": (traced[-1].journal_bytes / requests, "B/req"),
        "durability.restore_records_per_s": (
            traced[-1].restore_records / min(_flat(traced, "restore_seconds")),
            "records/s",
        ),
        "telemetry.overhead_pct": (
            100.0 * (_throughput(untraced) / _throughput(traced) - 1.0), "%"
        ),
        "telemetry.spans_per_req": (tally.counts["spans"] / n, "count/req"),
    }


def _percentile(values, pct: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(values, pct))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


def _git_sha() -> str:
    """HEAD's commit id read from ``.git`` (no subprocess); "unknown"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ----------------------------------------------------------------------------
# Driver.
# ----------------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workdir = HERE / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_workload(name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(name, seed, seconds, trace, workdir) -> int:
    bench = Bench(name, seed, workdir)
    tally = tracer = None
    if trace:
        untraced = bench.timed_phase(seconds / 2)
        tracer = Tracer(max_spans=100_000)
        tally = LayerTally()
        traced = bench.timed_phase(seconds / 2, tracer=tracer, tally=tally)
        if tracer.dropped:
            bench.problems.append(f"the tracer dropped {tracer.dropped} spans")
        if tally.violations:
            bench.problems.append(
                f"{tally.violations} traced requests whose span tree is unsound or whose "
                "layers do not sum to the client latency within 1%"
            )
        passes = untraced + traced
    else:
        untraced = traced = passes = bench.timed_phase(seconds)
    bench.check_passes(passes)
    table, boundaries = bench.class_table(untraced)
    bench.check_placement(boundaries)

    if trace:
        metrics = per_layer_metrics(untraced, traced, tally)
    else:
        metrics = end_to_end_metrics(bench, untraced)
    for metric, (value, unit) in metrics.items():
        print(f"{name:15s} {metric:42s} {value:14.6g} {unit}")
    attempted = sum(len(bench.stream.requests) for _ in passes)
    failed = sum(len(result.failures) for result in passes)
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine_facts(),
        "requests_per_pass": len(bench.stream.requests),
        "passes": len(passes),
        "tail_pct": bench.stream.tail_pct,
        "classes": table,
        "class_boundaries_pct": boundaries,
        "exact": passes[-1].exact,
        "trace_closure": tally.closure() if tally is not None else None,
        "trace_worst_gap": tally.worst_gap if tally is not None else None,
        "problems": bench.problems,
    }
    print(json.dumps(info, sort_keys=True))
    for problem in bench.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not bench.problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if not bench.problems else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload of ``BENCHMARK.json``, untraced then traced, each in
    its own process (so peak RSS is per workload); prints one combined
    result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in (workload["name"] for workload in config["workloads"]):
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                status = 1
                combined["correct"] = False
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


def _import_program() -> None:
    """Put the checkout's ``src`` on the path and import the service; exit
    non-zero, printing no result, when the checkout has no sources."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no package sources at {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    # One BLAS thread, like the one client: on a shared two-core machine
    # OpenBLAS's second thread, waiting for a core, stalls even small
    # factorisations for a scheduler tick or more (an 8 ms warm-up request
    # taking 270 ms), which swamped the set-up and tail timings.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    global np, scipy, build_stream, LayerTally, WORKLOADS
    global ArtifactCache, PlanScheduler, PrivacyJournal, SessionManager, Tracer, reconcile
    import numpy as np
    import scipy
    from layers import LayerTally
    from repro.durability import PrivacyJournal
    from repro.service import ArtifactCache, PlanScheduler, SessionManager, reconcile
    from repro.telemetry import Tracer
    from workloads import WORKLOADS, build_stream


if __name__ == "__main__":
    _import_program()
    sys.exit(main())
