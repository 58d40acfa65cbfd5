"""Tests of the benchmark itself: fixed streams, self-time sums, exact repeats.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from layers import LayerTally
from repro.telemetry.spans import Span
from workloads import WORKLOADS, build_stream

HERE = Path(__file__).resolve().parent


def _signature(request):
    return (request.session_id, request.cache_key())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_stream_is_fixed_by_the_seed(name):
    first, again, other = build_stream(name, 7), build_stream(name, 7), build_stream(name, 8)
    assert [_signature(r) for r in first.requests] == [_signature(r) for r in again.requests]
    assert first.classes == again.classes
    assert [t.base_seed for t in first.tenants] == [t.base_seed for t in again.tenants]
    # Another seed reorders the same requests: the mix does not move.
    assert [_signature(r) for r in first.requests] != [_signature(r) for r in other.requests]
    assert Counter(map(_signature, first.requests)) == Counter(map(_signature, other.requests))


def test_serve_replay_mix():
    stream = build_stream("serve-replay", 1)
    assert Counter(stream.classes) == {"replay": 1400, "fresh": 600}
    seen = set()
    for request, cls in zip(stream.requests, stream.classes):
        key = _signature(request)
        assert (cls == "replay") == (key in seen)  # a replay follows its release
        seen.add(key)


def _span(span_id, parent, name, start, end, trace="t"):
    return Span(trace, span_id, parent, name, start, end, "main")


def test_self_times_and_outside_time_sum_to_client_latency():
    tally = LayerTally()
    spans = [
        _span("k", "s", "kernel.measure.laplace", 0.2, 0.3),
        _span("q", "s", "solve.least_squares", 0.4, 0.7),
        _span("s", "w", "plan.stage.infer", 0.15, 0.8),
        _span("w", "r", "executor.worker", 0.1, 0.9),
        _span("r", None, "service.request", 0.0, 1.0),
    ]
    tally.add(spans, 1.2)
    assert tally.violations == 0
    assert tally.per_request_ms("service") == pytest.approx(200.0)
    assert tally.per_request_ms("plans") == pytest.approx(400.0)
    assert tally.per_request_ms("stage.infer") == pytest.approx(250.0)
    assert tally.per_request_ms("private.measure") == pytest.approx(100.0)
    assert tally.per_request_ms("inference") == pytest.approx(300.0)
    assert tally.outside_seconds == pytest.approx(0.2)
    assert tally.closure() == pytest.approx(0.0, abs=1e-12)


def test_overlapping_children_are_a_violation():
    tally = LayerTally()
    spans = [
        _span("a", "r", "kernel.measure.laplace", 0.1, 0.6),
        _span("b", "r", "solve.least_squares", 0.4, 0.9),  # overlaps a by 0.2
        _span("r", None, "service.request", 0.0, 1.0),
    ]
    tally.add(spans, 1.0)
    assert tally.violations == 1


def test_children_outlasting_their_parent_leave_a_gap():
    tally = LayerTally()
    spans = [
        _span("a", "r", "kernel.measure.laplace", 0.0, 0.7),
        _span("b", "r", "solve.least_squares", 0.3, 1.0),
        _span("r", None, "service.request", 0.0, 1.0),
    ]
    tally.add(spans, 1.0)
    assert tally.violations == 1
    # The root gets no negative self time, so the overlap shows in the sum.
    assert tally.per_request_ms("service") == 0.0
    assert tally.closure() == pytest.approx(0.4)


def test_a_child_outliving_its_parent_is_a_violation():
    tally = LayerTally()
    spans = [
        _span("k", "r", "kernel.measure.laplace", 0.5, 1.1),
        _span("r", None, "service.request", 0.0, 1.0),
    ]
    tally.add(spans, 1.2)
    assert tally.violations == 1


def test_a_root_longer_than_the_client_latency_is_a_violation():
    tally = LayerTally()
    tally.add([_span("r", None, "service.request", 0.0, 1.0)], 0.9)
    assert tally.violations == 1


def test_a_span_of_another_trace_is_a_violation():
    tally = LayerTally()
    spans = [
        _span("k", "r", "kernel.measure.laplace", 0.2, 0.3, trace="other"),
        _span("r", None, "service.request", 0.0, 1.0),
    ]
    tally.add(spans, 1.0)
    assert tally.violations == 1


def test_a_lost_parent_is_a_violation():
    tally = LayerTally()
    spans = [
        _span("k", "gone", "kernel.measure.laplace", 0.2, 0.3),
        _span("r", None, "service.request", 0.0, 1.0),
    ]
    tally.add(spans, 1.0)
    assert tally.violations == 1


def _exact_record(seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve-replay",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.strip().splitlines()
    assert json.loads(lines[-1])["correct"]
    return json.loads(lines[-2])["exact"]


def test_counts_rmse_and_digest_repeat_across_runs():
    assert _exact_record(11) == _exact_record(11)
