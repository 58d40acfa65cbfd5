"""Unit tests for the budget tracker (Algorithm 2)."""

import pytest

from repro.accounting import Cost
from repro.private.budget import BudgetTracker, NodeKind


class TestBasicAccounting:
    def test_root_requests_accumulate(self):
        tracker = BudgetTracker(1.0)
        assert tracker.charge("root", Cost(0.4))
        assert tracker.charge("root", Cost(0.4))
        assert tracker.consumed() == pytest.approx(0.8)
        assert tracker.remaining() == pytest.approx(0.2)

    def test_root_request_denied_when_exceeding(self):
        tracker = BudgetTracker(1.0)
        assert tracker.charge("root", Cost(0.9))
        assert not tracker.charge("root", Cost(0.2))
        # Denied request leaves the state unchanged.
        assert tracker.consumed() == pytest.approx(0.9)

    def test_negative_request_rejected(self):
        tracker = BudgetTracker(1.0)
        for cost in (Cost(-0.1), Cost(0.1, -1e-9)):
            with pytest.raises(ValueError, match="non-negative"):
                tracker.charge("root", cost)
        assert tracker.ledger() == [] and tracker.consumed() == 0.0

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            BudgetTracker(0.0)

    def test_unknown_node(self):
        tracker = BudgetTracker(1.0)
        with pytest.raises(KeyError):
            tracker.charge("ghost", Cost(0.1))


class TestDerivedNodes:
    def test_stability_multiplies_cost(self):
        tracker = BudgetTracker(1.0)
        tracker.add_derived("groupby", "root", stability=2.0)
        assert tracker.charge("groupby", Cost(0.3))
        # The root pays stability * sigma.
        assert tracker.consumed("root") == pytest.approx(0.6)
        assert tracker.consumed("groupby") == pytest.approx(0.3)

    def test_chained_stability(self):
        tracker = BudgetTracker(10.0)
        tracker.add_derived("a", "root", stability=2.0)
        tracker.add_derived("b", "a", stability=3.0)
        assert tracker.charge("b", Cost(1.0))
        assert tracker.consumed("root") == pytest.approx(6.0)
        assert tracker.cumulative_stability("b") == pytest.approx(6.0)

    def test_denial_propagates_without_charging(self):
        tracker = BudgetTracker(1.0)
        tracker.add_derived("a", "root", stability=2.0)
        # 0.6 would cost 1.2 at the root.
        assert not tracker.charge("a", Cost(0.6))
        assert tracker.consumed("root") == 0.0
        assert tracker.consumed("a") == 0.0

    def test_duplicate_names_rejected(self):
        tracker = BudgetTracker(1.0)
        tracker.add_derived("a", "root", stability=1.0)
        with pytest.raises(ValueError):
            tracker.add_derived("a", "root", stability=1.0)

    def test_nonpositive_stability_rejected(self):
        tracker = BudgetTracker(1.0)
        with pytest.raises(ValueError):
            tracker.add_derived("a", "root", stability=0.0)

    def test_lineage(self):
        tracker = BudgetTracker(1.0)
        tracker.add_derived("a", "root", stability=1.0)
        tracker.add_derived("b", "a", stability=1.0)
        assert tracker.lineage("b") == ["b", "a", "root"]


class TestParallelComposition:
    def _tracker_with_partition(self, epsilon=1.0, children=3):
        tracker = BudgetTracker(epsilon)
        tracker.add_derived("vector", "root", stability=1.0)
        tracker.add_partition("part", "vector")
        names = []
        for i in range(children):
            name = f"child{i}"
            tracker.add_derived(name, "part", stability=1.0)
            names.append(name)
        return tracker, names

    def test_parallel_children_share_cost(self):
        tracker, children = self._tracker_with_partition()
        for child in children:
            assert tracker.charge(child, Cost(0.5))
        # Only the maximum over children reaches the root.
        assert tracker.consumed("root") == pytest.approx(0.5)

    def test_unequal_children_charge_max(self):
        tracker, children = self._tracker_with_partition(epsilon=2.0)
        assert tracker.charge(children[0], Cost(0.5))
        assert tracker.charge(children[1], Cost(0.9))
        assert tracker.charge(children[2], Cost(0.2))
        assert tracker.consumed("root") == pytest.approx(0.9)

    def test_repeated_requests_on_same_child_are_sequential(self):
        tracker, children = self._tracker_with_partition(epsilon=2.0)
        assert tracker.charge(children[0], Cost(0.5))
        assert tracker.charge(children[0], Cost(0.5))
        assert tracker.consumed("root") == pytest.approx(1.0)

    def test_denial_when_max_exceeds_budget(self):
        tracker, children = self._tracker_with_partition(epsilon=1.0)
        assert tracker.charge(children[0], Cost(0.8))
        assert not tracker.charge(children[1], Cost(1.2))
        assert tracker.consumed("root") == pytest.approx(0.8)

    def test_node_kinds(self):
        tracker, _ = self._tracker_with_partition()
        assert tracker.node("root").kind is NodeKind.ROOT
        assert tracker.node("part").kind is NodeKind.PARTITION
        assert tracker.node("child0").kind is NodeKind.DERIVED

    def test_direct_request_on_partition_node_rejected(self):
        tracker, _ = self._tracker_with_partition()
        with pytest.raises(RuntimeError):
            tracker.charge("part", Cost(0.1))

    def test_derived_below_partition_child(self):
        tracker, children = self._tracker_with_partition(epsilon=1.0)
        tracker.add_derived("reduced", children[0], stability=1.0)
        assert tracker.charge("reduced", Cost(0.4))
        assert tracker.consumed("root") == pytest.approx(0.4)
        # Sibling can still measure 0.4 "for free" (parallel composition).
        assert tracker.charge(children[1], Cost(0.4))
        assert tracker.consumed("root") == pytest.approx(0.4)
