"""The benchmark's workloads: datasets, request streams, class shares.

A workload is a set of tenant datasets plus one *pass*: a fixed-length list
of :class:`~repro.service.QueryRequest` built only from the benchmark seed,
never from elapsed time.  The timed phase replays whole passes, each after
its own set-up: freshly opened sessions with the same session ids and base
seeds, and a fresh artifact cache warmed by the same requests.  So every
pass releases byte-identical answers and every per-pass count (requests,
cache hits, charges, journal records, solves, Gram builds) repeats exactly.

(The synthetic CPS ``census-striped`` workload is not defined here: its
latencies spread by more than the benchmark's bounds allow.)

Per-session quotas (how many requests of each class and plan each session
gets) are fixed by the workload's shares, not drawn, and the datasets and
query workloads are the fixed, named ones; the seed orders the requests and
seeds each session's noise.  That keeps the mix — and so the latency
percentiles, the ε spent per answer and the workload RMSE — steady from one
seed to the next.

Each request carries a *class* (``replay``/``fresh`` on serve-replay, the
plan name on paper-1d).  Shares are chosen so the median and the tail
percentile sit at least 10 percentile points away from every latency step
between classes once the classes are sorted by latency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataset import Attribute, Relation, Schema
from repro.dataset.dpbench import DATASETS_1D, load_1d
from repro.service import QueryRequest

__all__ = ["WORKLOADS", "Stream", "Tenant", "build_stream"]


@dataclass(frozen=True)
class Tenant:
    """One session of a pass: its id, its dataset and its budget."""

    session_id: str
    relation: Relation
    epsilon_total: float
    base_seed: int


@dataclass(frozen=True)
class Stream:
    """Everything one workload needs, derived from the seed alone."""

    name: str
    tenants: tuple[Tenant, ...]
    #: the pass: requests in client order, with their class labels.
    requests: tuple[QueryRequest, ...]
    classes: tuple[str, ...]
    #: the tail percentile reported as ``latency_tail_ms``, and the fewest
    #: passes a timed phase runs: together they leave at least 10 samples
    #: beyond the tail percentile.
    tail_pct: float
    min_passes: int
    #: journal-only restores after each pass: enough for about 25 or more
    #: restores per run, the fastest of which is ``restore_s``.
    restores: int
    #: warm-up requests: one per distinct (plan, workload) pair of the pass.
    warmup: tuple[QueryRequest, ...]


def _vector_relation(values: np.ndarray) -> Relation:
    schema = Schema.build([Attribute("x", len(values))])
    return Relation.from_histogram(schema, np.asarray(values, dtype=np.float64))


def _seed_for(seed: int, *material) -> int:
    return int(np.random.SeedSequence([seed, *material]).generate_state(1)[0])


def _quotas(total: int, weights) -> list[int]:
    """Split ``total`` into integer counts proportional to ``weights``
    (largest remainder, ties to the earlier entry)."""
    weights = np.asarray(weights, dtype=np.float64)
    exact = total * weights / weights.sum()
    counts = np.floor(exact).astype(int)
    order = np.argsort(-(exact - counts), kind="stable")
    counts[order[: total - counts.sum()]] += 1
    return counts.tolist()


def _epsilon_ladder(base: float, step: float):
    """Distinct per-session budgets, so no two fresh requests share a key."""
    counters: dict[str, int] = {}

    def next_epsilon(session_id: str) -> float:
        k = counters.get(session_id, 0)
        counters[session_id] = k + 1
        return round(base + step * k, 6)

    return next_epsilon


def _check_budgets(tenants, requests) -> None:
    demand: dict[str, float] = {}
    for request in requests:
        demand[request.session_id] = demand.get(request.session_id, 0.0) + request.epsilon
    for tenant in tenants:
        if demand.get(tenant.session_id, 0.0) > tenant.epsilon_total:
            raise ValueError(f"stream overspends session {tenant.session_id!r}")


def _warmup(requests) -> tuple[QueryRequest, ...]:
    seen = {}
    for request in requests:
        key = (request.plan, request.cache_key()[2], request.cache_key()[3])
        seen.setdefault(key, request)
    return tuple(seen.values())


# ----------------------------------------------------------------------------
# serve-replay
# ----------------------------------------------------------------------------
SERVE_N = 256
SERVE_SESSIONS = 8
SERVE_PASS = 2000
SERVE_FRESH_SHARE = 0.30
SERVE_ZIPF = 1.1
SERVE_PLANS = ("Identity", "Hierarchical (H2)", "Uniform", "Hierarchical Opt (HB)")


def _serve_replay(seed: int) -> Stream:
    rng = np.random.default_rng(_seed_for(seed, 1))
    names = list(DATASETS_1D)[:SERVE_SESSIONS]
    tenants = tuple(
        Tenant(
            f"serve-{name.lower()}",
            _vector_relation(load_1d(name, n=SERVE_N)),
            100.0,
            _seed_for(seed, 1, i),
        )
        for i, name in enumerate(names)
    )
    workloads = (
        ("prefix", {"n": SERVE_N}),
        ("random_range", {"n": SERVE_N, "num_queries": 128, "seed": 0}),
    )
    popularity = [(rank + 1) ** -SERVE_ZIPF for rank in range(SERVE_SESSIONS)]
    num_fresh = round(SERVE_PASS * SERVE_FRESH_SHARE)
    fresh_quota = _quotas(num_fresh, popularity)
    replay_quota = _quotas(SERVE_PASS - num_fresh, popularity)

    # Each fresh request and its replays get random times, the earliest going
    # to the fresh one (a replay needs the answer released first); the pass
    # is every session's events in time order.  Which plan, workload and
    # budget each session asks for, and how often each answer is replayed,
    # is the same under every seed.
    combos = [(plan, wl) for plan in SERVE_PLANS for wl in workloads]
    events = []
    for index, tenant in enumerate(tenants):
        fresh, replays = fresh_quota[index], replay_quota[index]
        for k in range(fresh):
            plan, (wl, params) = combos[k % len(combos)]
            request = QueryRequest(
                session_id=tenant.session_id,
                plan=plan,
                epsilon=round(0.05 + 0.001 * k, 6),
                workload=wl,
                workload_params=params,
            )
            times = np.sort(rng.random(1 + replays // fresh + (k < replays % fresh)))
            events.append((times[0], request, "fresh"))
            events.extend((t, request, "replay") for t in times[1:])
    events.sort(key=lambda event: event[0])
    requests = [request for _, request, _ in events]
    classes = [kind for _, _, kind in events]
    _check_budgets(tenants, [r for r, c in zip(requests, classes) if c == "fresh"])
    return Stream(
        "serve-replay", tenants, tuple(requests), tuple(classes), 99.0, 1, 2, _warmup(requests)
    )


# ----------------------------------------------------------------------------
# paper-1d
# ----------------------------------------------------------------------------
PAPER_N = 4096
PAPER_PASS = 100
#: plan shares.  Identity takes about 1.5 ms, AHP 2.5 ms, Privelet, HB and
#: DAWA 40-55 ms each, so the latency steps sit at the 10th and 20th
#: percentiles, clear of p50 and p95.
PAPER_SHARES = {
    "Identity": 0.10,
    "AHP": 0.10,
    "Privelet": 0.30,
    "Hierarchical Opt (HB)": 0.25,
    "DAWA": 0.25,
}


def _paper_1d(seed: int) -> Stream:
    rng = np.random.default_rng(_seed_for(seed, 3))
    tenants = tuple(
        Tenant(
            f"paper-{name.lower()}",
            _vector_relation(load_1d(name, n=PAPER_N)),
            10.0,
            _seed_for(seed, 3, i),
        )
        for i, name in enumerate(DATASETS_1D)
    )
    workloads = (
        ("prefix", {"n": PAPER_N}),
        ("random_range", {"n": PAPER_N, "num_queries": 1000, "seed": 0}),
    )
    return _fresh_only(
        "paper-1d", rng, tenants, PAPER_SHARES, PAPER_PASS, workloads, {}, 0.1, 0.001, 95.0, 2, 6
    )


def _fresh_only(
    name, rng, tenants, shares, length, workloads, plan_params, eps_base, eps_step, tail_pct,
    min_passes, restores,
) -> Stream:
    """A pass of budget-spending requests: plan counts fixed by ``shares``,
    each plan's requests spread evenly over sessions and workloads, budgets
    paired with them the same way under every seed."""
    counts = _quotas(length, list(shares.values()))
    next_epsilon = _epsilon_ladder(eps_base, eps_step)
    entries = []
    for (plan, _), count in zip(shares.items(), counts):
        for k in range(count):
            tenant = tenants[k % len(tenants)]
            wl, params = workloads[(k // len(tenants)) % len(workloads)]
            entries.append((tenant, plan, wl, params, next_epsilon(tenant.session_id)))
    requests, classes = [], []
    for index in rng.permutation(len(entries)).tolist():
        tenant, plan, wl, params, epsilon = entries[index]
        requests.append(
            QueryRequest(
                session_id=tenant.session_id,
                plan=plan,
                plan_params=plan_params.get(plan, {}),
                epsilon=epsilon,
                workload=wl,
                workload_params=params,
            )
        )
        classes.append(plan)
    _check_budgets(tenants, requests)
    return Stream(
        name, tenants, tuple(requests), tuple(classes), tail_pct, min_passes, restores,
        _warmup(requests),
    )


WORKLOADS = {
    "serve-replay": _serve_replay,
    "paper-1d": _paper_1d,
}


def build_stream(name: str, seed: int) -> Stream:
    """The workload ``name`` under ``seed`` (datasets included)."""
    return WORKLOADS[name](seed)
