"""Privacy-budget accounting (Algorithm 2 of the paper, generalised).

The protected kernel maintains a *transformation graph* over data-source
variables.  Each node is one of:

* the **root** (the original protected table),
* a **derived** source, produced from its parent by a c-stable transformation,
* a **partition** dummy node, whose children are the disjoint pieces produced
  by a SplitByPartition transformation.

A measurement of a source ``sv`` with cost ``c`` walks the graph upward
once, read-only, collecting what each node would add:

* a derived node with stability factor ``s`` forwards
  ``accountant.scale(c, s)`` to its parent (sequential composition through
  stability — ``s·ε`` for pure/(ε, δ) accounting, ``s²·ρ`` for zCDP);
* a child of a partition node forwards only the *increase of the maximum*
  over the partition's children (parallel composition):
  ``r = max(B(child) + c - B(node), 0)``, componentwise over the cost
  vector; a zero increase stops the walk below the root;
* at the root, the request succeeds iff the per-charge ledger plus the cost
  that arrives stays within the accountant's total budget.

:meth:`BudgetTracker.charge` applies the walk's increases only when the root
accepts, so a refused charge changes nothing: the charge is the budget
filter, and a refused measurement spends nothing.

This module owns the lineage-stability bookkeeping only; *what* a mechanism
costs, how costs scale through stability, and what the total budget is are
delegated to a pluggable :class:`~repro.accounting.Accountant`.  With the
default :class:`~repro.accounting.PureDPAccountant` the float trajectory is
bit-identical to the original hard-coded ε tracker.

Root-level acceptance is decided against an explicit per-charge ledger with
a slack that only absorbs rounding, rather than against a naive running
float accumulator: a long sequence of small charges can no longer drift past
``epsilon_total`` through accumulated rounding, and a charge that *exactly*
exhausts the budget is no longer spuriously rejected because earlier
additions rounded up.  The decision sum is the correctly rounded sum of the
ledger and the new charge: the tracker keeps each component's ledger sum
exactly, as the few non-overlapping partials ``math.fsum`` keeps
(:func:`~repro.accounting.base.add_exact`), so a decision costs a ``fsum``
over those partials, not over the whole ledger.  The tracker knows nothing
of durability: a journaled session reads the ledger's new charges at each
commit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..accounting.accountants import PureDPAccountant
from ..accounting.base import Accountant, Cost, add_exact

#: The root node's name: the protected table every source derives from.
ROOT = "root"

#: Relative tolerance of the root-level ledger check on the δ component (δ
#: totals are ~1e-6, so an absolute 1e-9 would be far too loose there).  The
#: primary (ε or ρ) component's slack is far smaller: see ``_ledger_accepts``.
LEDGER_TOLERANCE = 1e-9


class NodeKind(Enum):
    """Role of a node in the transformation graph."""

    ROOT = "root"
    DERIVED = "derived"
    PARTITION = "partition"


@dataclass
class BudgetNode:
    """Bookkeeping state of one data-source variable.

    ``consumed`` / ``consumed_delta`` are the two components of the node's
    accumulated :class:`~repro.accounting.Cost` — kept as plain floats
    (updated with the same ``+=`` the seed tracker used) so pure-DP
    trajectories stay bit-identical and audits read a bare ε number.
    """

    name: str
    kind: NodeKind
    parent: Optional[str]
    #: stability factor of the transformation that derived this node from its
    #: parent (1 for the root and for partition dummy nodes).
    stability: float = 1.0
    #: primary budget component (ε or ρ) consumed by queries on this node or
    #: any of its descendants.
    consumed: float = 0.0
    #: δ component consumed (identically 0 under pure ε-DP and zCDP).
    consumed_delta: float = 0.0

    @property
    def spent(self) -> Cost:
        return Cost(self.consumed, self.consumed_delta)

    def _accumulate(self, cost: Cost) -> None:
        self.consumed += cost.primary
        self.consumed_delta += cost.delta


class BudgetTracker:
    """Tracks per-source budget consumption and enforces the global budget."""

    def __init__(
        self,
        epsilon_total: float | None = None,
        accountant: Accountant | None = None,
    ):
        if accountant is None:
            accountant = PureDPAccountant(epsilon_total)
        self.accountant = accountant
        self.epsilon_total = accountant.budget.primary
        self._root = BudgetNode(ROOT, NodeKind.ROOT, parent=None, stability=1.0)
        self._nodes: dict[str, BudgetNode] = {ROOT: self._root}
        #: every accepted root-level charge, in native units, plus the exact
        #: partials of each component's sum, which acceptance is decided on.
        self._ledger: list[Cost] = []
        self._ledger_primary: list[float] = []
        self._ledger_delta: list[float] = []

    # ------------------------------------------------------------------
    # Graph construction.
    # ------------------------------------------------------------------
    def add_derived(self, name: str, parent: str, stability: float) -> None:
        """Register a source derived from ``parent`` by a ``stability``-stable transform."""
        self._check_new(name, parent)
        if not 0 < stability < math.inf:
            raise ValueError("stability must be positive and finite")
        self._nodes[name] = BudgetNode(name, NodeKind.DERIVED, parent, float(stability))

    def add_partition(self, name: str, parent: str) -> None:
        """Register the dummy node introduced by a SplitByPartition transform."""
        self._check_new(name, parent)
        self._nodes[name] = BudgetNode(name, NodeKind.PARTITION, parent, 1.0)

    def _check_new(self, name: str, parent: str) -> None:
        if name in self._nodes:
            raise ValueError(f"source variable {name!r} already exists")
        if parent not in self._nodes:
            raise KeyError(f"unknown parent source variable {parent!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def node(self, name: str) -> BudgetNode:
        if name not in self._nodes:
            raise KeyError(f"unknown source variable {name!r}")
        return self._nodes[name]

    # ------------------------------------------------------------------
    # Algorithm 2, generalised over the accountant's cost vector.
    # ------------------------------------------------------------------
    def charge(self, name: str, cost: Cost) -> bool:
        """Attempt to consume ``cost`` (native units) on source ``name``.

        Applies :meth:`_walk`'s increases if the cost reaching the root fits
        the ledger; otherwise returns ``False`` and changes nothing.  A cost
        with a negative or non-finite component raises ``ValueError`` and
        changes nothing: an infinite charge would turn the ledger sum into
        NaN (``inf - inf``), which every later acceptance test lets through.
        """
        if cost.primary < 0 or cost.delta < 0:
            raise ValueError("budget requests must be non-negative")
        if not (math.isfinite(cost.primary) and math.isfinite(cost.delta)):
            raise ValueError("budget requests must be finite")
        steps, root_cost = self._walk(name, cost)
        if root_cost is not None:
            if not self._ledger_accepts(root_cost):
                return False
            self._append_ledger(root_cost)
            self._root._accumulate(root_cost)
        for node, increase in steps:
            node._accumulate(increase)
        return True

    def _walk(self, name: str, cost: Cost) -> tuple[list[tuple[BudgetNode, Cost]], Cost | None]:
        """Algorithm 2's upward propagation of ``cost`` from ``name``, read-only.

        Returns each non-root ``(node, increase)`` pair a charge adds, from
        ``name`` up, and the cost that reaches the root — ``None`` when a
        partition node absorbs the increase (parallel composition).  A derived
        node forwards its cost scaled by its stability; a child of a
        partition forwards only the increase of the partition's maximum.  A
        partition node nested under another partition is that partition's
        child.
        """
        node = self.node(name)
        if node.kind is NodeKind.PARTITION:
            raise RuntimeError(
                "requests are never issued directly against a partition node; "
                "they are forwarded from its children"
            )
        steps = []
        while node.kind is not NodeKind.ROOT:
            steps.append((node, cost))
            parent = self._nodes[node.parent]
            if parent.kind is NodeKind.PARTITION:
                cost = (node.spent + cost).increase_over(parent.spent)
                if cost.is_zero:
                    return steps, None
            else:
                cost = self.accountant.scale(cost, node.stability)
            node = parent
        return steps, cost

    def _ledger_accepts(self, cost: Cost) -> bool:
        """Would the root-level ledger stay within budget after ``cost``?

        The decision uses the correctly rounded sum of the explicit
        per-charge ledger and ``cost`` — immune to the drift a naive running
        accumulator picks up over many small charges — with a slack that only
        absorbs the last-ulp rounding of an exactly budget-exhausting charge,
        never a real overspend.  On the primary component it is the seed
        tracker's absolute 1e-12, shrunk to a millionth of budgets below 1e-6
        (a zCDP ρ budget can be ~1e-8); on δ it is :data:`LEDGER_TOLERANCE`
        times the δ budget.
        """
        budget = self.accountant.budget
        slack = min(1e-12, 1e-6 * budget.primary)
        if math.fsum([*self._ledger_primary, cost.primary]) > budget.primary + slack:
            return False
        if cost.delta or budget.delta:
            delta = math.fsum([*self._ledger_delta, cost.delta])
            if delta > budget.delta + LEDGER_TOLERANCE * max(budget.delta, 0.0):
                return False
        return True

    # ------------------------------------------------------------------
    # Durable-state support (replay of durable records).
    # ------------------------------------------------------------------
    def apply_restored_charge(self, cost: Cost) -> None:
        """Re-apply a root-level charge replayed from durable records.

        Replay bypasses the acceptance check (the charge was accepted
        before the crash — re-deciding it against tolerance drift could
        reject an exact replay).  Per-source counters of plan-internal
        derived nodes are *not* reconstructed — only the root ledger, which
        is what reconciliation and future acceptance decisions read.
        """
        if cost.primary < 0 or cost.delta < 0:
            raise ValueError("restored charges must be non-negative")
        self._append_ledger(cost)
        self._root._accumulate(cost)

    def _append_ledger(self, cost: Cost) -> None:
        """Append one root-level charge to the ledger and its exact sums."""
        self._ledger.append(cost)
        add_exact(self._ledger_primary, cost.primary)
        add_exact(self._ledger_delta, cost.delta)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def consumed(self, name: str = None) -> float:
        """Primary budget consumed at ``name`` (default: at the root, i.e. globally)."""
        return self.node(name or ROOT).consumed

    def spent(self, name: str = None) -> Cost:
        """Full cost vector consumed at ``name`` (default: at the root)."""
        return self.node(name or ROOT).spent

    def remaining(self) -> float:
        """Remaining global budget (primary component, native units).

        Clamped at zero: an exactly budget-exhausting charge accepted through
        the exact ledger sum can leave the naive per-node accumulator a few
        ulps above the total, and a negative remaining budget must never leak
        into audits or error messages.
        """
        return max(self.epsilon_total - self._root.consumed, 0.0)

    def remaining_cost(self) -> Cost:
        """Remaining global budget as a cost vector (clamped at zero)."""
        budget = self.accountant.budget
        return budget.increase_over(self.spent())

    def ledger(self, since: int = 0) -> list[Cost]:
        """A copy of the accepted root-level charges from index ``since`` on."""
        return self._ledger[since:]

    @property
    def num_charges(self) -> int:
        """Number of accepted root-level charges (the ledger's length)."""
        return len(self._ledger)

    def charged_between(self, start: int, stop: int) -> float:
        """Exact primary spend of the ledger slice ``[start, stop)``.

        ``math.fsum`` over the slice's own charges: the result depends only
        on the charges themselves, not on what the running accumulator held
        when they landed — so two executions that make identical charges
        report identical spend regardless of how concurrent requests
        interleaved around them.  The naive difference of two running totals
        does not have that property (its last ulp shifts with the prior
        ledger content).
        """
        return math.fsum(cost.primary for cost in self._ledger[start:stop])

    def lineage(self, name: str) -> list[str]:
        """Chain of ancestors from ``name`` up to (and including) the root."""
        chain = [name]
        node = self.node(name)
        while node.parent is not None:
            chain.append(node.parent)
            node = self._nodes[node.parent]
        return chain

    def cumulative_stability(self, name: str) -> float:
        """Product of stability factors from ``name`` up to the root."""
        product = 1.0
        node = self.node(name)
        while node.parent is not None:
            product *= node.stability
            node = self._nodes[node.parent]
        return product
