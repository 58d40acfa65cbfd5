"""Service demo: two tenants, concurrent plans, measurement reuse, audit export.

This example drives the `repro.service` layer the way a deployment would:

1. open one session per tenant, each wrapping its own protected kernel with
   its own privacy budget,
2. submit a mixed batch of plan requests for both tenants and execute them
   concurrently on the scheduler's thread pool (sessions never share a
   kernel, so parallel work cannot cross budgets),
3. re-submit a tenant's workload request — the answer comes back from the
   session's releases with **zero** additional epsilon spent (post-processing
   of the already-released noisy measurement),
4. export the per-session audit and reconcile the service's event ledger
   against each kernel's own ``budget_consumed()`` — they must match exactly.

Run:  python examples/service_sessions.py
"""

from __future__ import annotations

import numpy as np

from repro.dataset import Attribute, Relation, Schema
from repro.service import PlanScheduler, QueryRequest, SessionManager, reconcile, session_report


def histogram_relation(values: np.ndarray, name: str = "income") -> Relation:
    """Wrap a histogram as a one-attribute relation (each tenant's table)."""
    schema = Schema.build([Attribute(name, len(values))])
    return Relation.from_histogram(schema, np.asarray(values, dtype=np.float64))


def main() -> None:
    rng = np.random.default_rng(3)
    n = 256

    manager = SessionManager()
    scheduler = PlanScheduler(manager, max_workers=4)

    # Each tenant brings its own table and budget.
    acme = manager.create_session(
        "acme", histogram_relation(rng.integers(0, 500, size=n)), epsilon_total=1.0, seed=7
    )
    globex = manager.create_session(
        "globex", histogram_relation(rng.integers(0, 200, size=n)), epsilon_total=0.5, seed=11
    )
    print(f"sessions: {acme.session_id} (eps=1.0), {globex.session_id} (eps=0.5)\n")

    # A mixed batch: acme asks for the CDF workload under two plans, globex
    # for per-cell counts.  The scheduler runs them across 4 workers.
    batch = [
        QueryRequest(acme.session_id, plan="Hierarchical (H2)", epsilon=0.2,
                     workload="prefix", workload_params={"n": n}, tag="cdf/h2"),
        QueryRequest(acme.session_id, plan="Identity", epsilon=0.1,
                     workload="prefix", workload_params={"n": n}, tag="cdf/identity"),
        QueryRequest(globex.session_id, plan="Identity", epsilon=0.1, tag="counts"),
        QueryRequest(globex.session_id, plan="Uniform", epsilon=0.05, tag="total"),
    ]
    responses = scheduler.execute_batch(batch)
    for response in responses:
        print(
            f"{response.session_id:<10} {response.plan:<18} "
            f"eps_spent={response.epsilon_spent:.3f} cached={response.cached} "
            f"seed={response.seed}"
        )

    # Re-ask acme's CDF question: answered from the session's releases.
    before = acme.budget_consumed()
    replay = scheduler.execute(
        QueryRequest(acme.session_id, plan="Hierarchical (H2)", epsilon=0.2,
                     workload="prefix", workload_params={"n": n}, tag="cdf/h2 again")
    )
    assert replay.cached and replay.epsilon_spent == 0.0
    assert np.array_equal(replay.answers, responses[0].answers)
    print(
        f"\nrepeat of acme's CDF request: cached={replay.cached}, "
        f"epsilon spent {before:.3f} -> {acme.budget_consumed():.3f} (no change)"
    )

    # Audit export reconciles the service ledger with each kernel's own.
    print("\naudit reconciliation:")
    for session in (acme, globex):
        check = reconcile(session)
        report = session_report(session)
        assert check["exact"], check
        print(
            f"  {session.session_id:<10} tenant={session.tenant:<8} "
            f"requests={report['num_requests']} (cached {report['num_cached']})  "
            f"service ledger={check['service_epsilon']:.6g}  "
            f"kernel ledger={check['kernel_epsilon']:.6g}  exact={check['exact']}"
        )
        print(f"    remaining budget: {session.budget_remaining():.6g}")


if __name__ == "__main__":
    main()
