"""Property-based tests for the privacy accounting (Algorithm 2 invariants)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting import ApproxDPAccountant, Cost, PureDPAccountant, ZCDPAccountant
from repro.private.budget import BudgetTracker


@st.composite
def request_sequences(draw):
    """A random tree of sources plus a random sequence of budget requests."""
    epsilon_total = draw(st.floats(min_value=0.1, max_value=5.0))
    num_derived = draw(st.integers(min_value=0, max_value=4))
    num_partition_children = draw(st.integers(min_value=0, max_value=4))
    stabilities = [
        draw(st.sampled_from([1.0, 1.0, 2.0])) for _ in range(num_derived)
    ]
    requests = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.floats(min_value=0.0, max_value=2.0),
            ),
            max_size=12,
        )
    )
    return epsilon_total, stabilities, num_partition_children, requests


def _build(epsilon_total, stabilities, num_partition_children):
    tracker = BudgetTracker(epsilon_total)
    names = ["root"]
    parent = "root"
    for i, s in enumerate(stabilities):
        name = f"derived{i}"
        tracker.add_derived(name, parent, stability=s)
        names.append(name)
        parent = name
    if num_partition_children:
        tracker.add_partition("part", parent)
        for i in range(num_partition_children):
            name = f"child{i}"
            tracker.add_derived(name, "part", stability=1.0)
            names.append(name)
    return tracker, names


@given(request_sequences())
@settings(max_examples=200, deadline=None)
def test_root_consumption_never_exceeds_total(params):
    epsilon_total, stabilities, num_children, requests = params
    tracker, names = _build(epsilon_total, stabilities, num_children)
    for target_index, sigma in requests:
        target = names[target_index % len(names)]
        tracker.charge(target, Cost(sigma))
    assert tracker.consumed("root") <= epsilon_total + 1e-9
    assert tracker.remaining() >= -1e-9


@given(request_sequences())
@settings(max_examples=200, deadline=None)
def test_denied_requests_change_nothing(params):
    epsilon_total, stabilities, num_children, requests = params
    tracker, names = _build(epsilon_total, stabilities, num_children)
    for target_index, sigma in requests:
        target = names[target_index % len(names)]
        before = {name: tracker.consumed(name) for name in names}
        granted = tracker.charge(target, Cost(sigma))
        if not granted:
            after = {name: tracker.consumed(name) for name in names}
            assert before == after


@given(
    st.floats(min_value=0.2, max_value=5.0),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_sequential_composition_adds(epsilon_total, sigmas):
    tracker = BudgetTracker(epsilon_total)
    granted_total = 0.0
    for sigma in sigmas:
        if tracker.charge("root", Cost(sigma)):
            granted_total += sigma
    assert tracker.consumed("root") == np.float64(granted_total) or np.isclose(
        tracker.consumed("root"), granted_total
    )


@given(
    st.floats(min_value=0.5, max_value=5.0),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.01, max_value=0.4),
)
@settings(max_examples=200, deadline=None)
def test_parallel_composition_charges_max_once(epsilon_total, num_children, sigma):
    tracker = BudgetTracker(epsilon_total)
    tracker.add_partition("part", "root")
    for i in range(num_children):
        tracker.add_derived(f"c{i}", "part", stability=1.0)
    for i in range(num_children):
        assert tracker.charge(f"c{i}", Cost(sigma))
    assert np.isclose(tracker.consumed("root"), sigma)


@given(
    st.floats(min_value=1.0, max_value=10.0),
    st.sampled_from([1.0, 2.0, 3.0]),
    st.floats(min_value=0.05, max_value=0.5),
)
@settings(max_examples=100, deadline=None)
def test_stability_scales_root_cost(epsilon_total, stability, sigma):
    tracker = BudgetTracker(epsilon_total)
    tracker.add_derived("d", "root", stability=stability)
    granted = tracker.charge("d", Cost(sigma))
    if stability * sigma <= epsilon_total:
        assert granted
        assert np.isclose(tracker.consumed("root"), stability * sigma)
    else:
        assert not granted
        assert tracker.consumed("root") == 0.0


@st.composite
def charge_trees(draw):
    """A random graph of derived and (possibly nested) partition nodes, an
    accountant, and a sequence of charges against its non-partition nodes."""
    accountant = draw(
        st.sampled_from(
            [
                PureDPAccountant(1.0),
                ApproxDPAccountant(1.0, delta_total=1e-6),
                ZCDPAccountant(rho=0.5),
            ]
        )
    )
    nodes = [("root", "root", None, 1.0)]  # (name, kind, parent, stability)
    for i in range(draw(st.integers(min_value=0, max_value=8))):
        parent = draw(st.sampled_from(nodes))[0]
        kind = draw(st.sampled_from(["derived", "derived", "partition"]))
        stability = draw(st.sampled_from([0.5, 1.0, 1.0, 2.0]))
        nodes.append((f"n{i}", kind, parent, stability))
    delta = 1e-8 if accountant.name == "approx" else 0.0
    charges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.floats(min_value=0.0, max_value=0.6),
                st.sampled_from([0.0, delta]),
            ),
            max_size=15,
        )
    )
    return accountant, nodes, charges


def _state(tracker, names):
    return [tracker.spent(name) for name in names], tracker.ledger()


@given(charge_trees())
@settings(max_examples=300, deadline=None)
def test_refused_charge_changes_nothing(params):
    """The charge is the budget filter: a refusal leaves every node's spend
    and the root ledger as they were, so asking costs nothing."""
    accountant, nodes, charges = params
    tracker = BudgetTracker(accountant=accountant)
    for name, kind, parent, stability in nodes[1:]:
        if kind == "partition":
            tracker.add_partition(name, parent)
        else:
            tracker.add_derived(name, parent, stability)
    names = [node[0] for node in nodes]
    targets = ["root"] + [node[0] for node in nodes[1:] if node[1] == "derived"]
    for index, primary, delta in charges:
        target = targets[index % len(targets)]
        before = _state(tracker, names)
        if not tracker.charge(target, Cost(primary, delta)):
            assert _state(tracker, names) == before
