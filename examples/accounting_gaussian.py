"""Pluggable accountants: Gaussian measurements and zCDP composition.

The kernel's budget enforcement is generic over a *privacy accountant*
(:mod:`repro.accounting`): the paper's pure ε-DP, classic (ε, δ) with the
analytic Gaussian mechanism, or ρ-zCDP with additive composition.  This
walkthrough shows the three things the subsystem buys:

1. the same plan code measuring with Gaussian instead of Laplace noise
   (``noise="gaussian"``), calibrated to the strategy's **L2** sensitivity,
2. the zCDP accountant charging a 40-round MWEM run far less converted ε
   than basic composition would,
3. a multi-tenant service where each session picks its own accountant, and
   the audit export reports the converted (ε, δ) statement.

Run:  python examples/accounting_gaussian.py
"""

from __future__ import annotations

import numpy as np

from repro.accounting import ZCDPAccountant
from repro.analysis import expected_workload_error
from repro.dataset import small_census
from repro.matrix import Prefix, RangeQueries
from repro.plans import MwemPlan
from repro.private import protect
from repro.service import PlanScheduler, QueryRequest, SessionManager
from repro.service.export import reconcile


def gaussian_vs_laplace_error() -> None:
    print("=== 1. Gaussian vs Laplace expected error (matched (eps, delta)) ===")
    n, epsilon, delta = 2048, 1.0, 1e-6
    strategy = Prefix(n)
    workload = RangeQueries(n, [(i, i + n // 8) for i in range(0, n - n // 8, n // 32)])
    laplace = expected_workload_error(workload, strategy, epsilon, noise="laplace")
    gaussian = expected_workload_error(workload, strategy, epsilon, noise="gaussian", delta=delta)
    print(f"strategy Prefix({n}): L1 sensitivity {strategy.sensitivity():.0f}, "
          f"L2 sensitivity {strategy.sensitivity_l2():.1f}")
    print(f"expected total squared error  laplace : {laplace:.3e}")
    print(f"                              gaussian: {gaussian:.3e}  "
          f"({laplace / gaussian:.0f}x lower)\n")


def mwem_zcdp_crossover() -> None:
    print("=== 2. Many-round MWEM: zCDP vs basic composition ===")
    relation = small_census(num_records=5_000, seed=3)
    n = relation.domain_size
    workload = RangeQueries(n, [(i, min(i + 999, n - 1)) for i in range(0, n - 1, 500)])
    plan = MwemPlan(workload, rounds=40, total_records=5_000.0, history_passes=2)
    epsilon, delta = 1.0, 1e-6

    pure = protect(relation, epsilon_total=epsilon, seed=0).vectorize()
    plan.run(pure, epsilon)
    print(f"pure accountant:  spent eps = {pure.budget_consumed():.3f} "
          "(basic composition: the 80 tiny charges add up linearly)")

    zc = protect(
        relation, seed=0, accountant=ZCDPAccountant(epsilon=epsilon, delta=delta)
    ).vectorize()
    plan.run(zc, epsilon)
    report = zc.kernel.accounting_report()
    print(f"zcdp accountant:  spent rho = {report['native_spent']:.5f} "
          f"-> converted ({report['epsilon_spent']:.3f}, {report['delta_spent']:g})-DP")
    print(f"remaining native budget: rho = {report['native_remaining']:.5f} "
          f"of {report['native_budget']:.5f}\n")


def per_tenant_service_accounting() -> None:
    print("=== 3. Per-tenant accountants in the query service ===")
    table = small_census(num_records=5_000, seed=3)
    manager = SessionManager()
    scheduler = PlanScheduler(manager)

    pure_session = manager.create_session("classic-tenant", table, epsilon_total=1.0, seed=1)
    zcdp_session = manager.create_session(
        "gaussian-tenant", table, epsilon_total=1.0, seed=1, accountant="zcdp", delta=1e-6
    )

    scheduler.execute(QueryRequest(
        session_id=pure_session.session_id, plan="Hierarchical (H2)", epsilon=0.4,
        workload="prefix", workload_params={"n": table.domain_size},
    ))
    response = scheduler.execute(QueryRequest(
        session_id=zcdp_session.session_id, plan="Hierarchical (H2)", epsilon=0.4,
        plan_params={"noise": "gaussian"},
        workload="prefix", workload_params={"n": table.domain_size},
    ))

    for session in (pure_session, zcdp_session):
        report = session.accounting_report()
        print(f"{session.tenant:16s} accountant={report['accountant']:6s} "
              f"native spent={report['native_spent']:.5f} "
              f"-> ({report['epsilon_spent']:.3f}, {report['delta_spent']:g})-DP; "
              f"ledger exact: {reconcile(session)['exact']}")
    record = zcdp_session.kernel.history()[-1]
    print(f"gaussian-tenant's last measurement: {record.operator} "
          f"sigma={record.noise_scale:.1f} (rho cost {record.cost:.5f})")
    print(f"response payload shape: {np.asarray(response.payload).shape}")


def main() -> None:
    gaussian_vs_laplace_error()
    mwem_zcdp_crossover()
    per_tenant_service_accounting()


if __name__ == "__main__":
    main()
