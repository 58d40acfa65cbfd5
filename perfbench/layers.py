"""Per-layer self time from the spans of traced requests.

A span's *self time* is its duration minus the durations of its direct
children.  Spans map to layers by name:

* ``service``   — ``service.request`` (the root);
* ``plans``     — ``plan.run``, ``executor.worker`` and ``plan.stage.*``;
* ``private``   — ``kernel.measure.*``/``kernel.select.*`` (measure) and
  ``kernel.transform.*`` (transform);
* ``inference`` — ``solve.*``;
* ``other``     — any span name not listed above.

The layers plus the client-side time outside the root span add up to the
client-measured latency only when the span tree is sound: one root, one
trace, children inside their parent's interval and not overlapping each
other.  ``LayerTally.add`` checks every request for these rules.  Self time
is counted from zero up (a parent whose children outlast it has no negative
self time), so such a tree also shows as a gap between the layer sum and
the client latency, which is checked too.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["LayerTally", "layer_of"]


def layer_of(name: str) -> str:
    if name == "service.request":
        return "service"
    if name in ("plan.run", "executor.worker") or name.startswith("plan.stage."):
        return "plans"
    if name.startswith(("kernel.measure.", "kernel.select.")):
        return "private.measure"
    if name.startswith("kernel.transform."):
        return "private.transform"
    if name.startswith("solve."):
        return "inference"
    return "other"


class LayerTally:
    """Accumulates self time per layer over traced requests.

    ``add`` takes the finished spans of one request (drained from the tracer
    right after the request returns) and the client-measured latency.  A
    request is a *violation* unless its spans form one tree under a single
    ``service.request`` root, all in the root's trace, every span within its
    parent's interval and the root within the client's, and the outside-span
    time plus the layers' self times reproduce the client latency within
    ``tolerance`` (a share of the client latency).
    """

    def __init__(self, tolerance: float = 0.01):
        self.tolerance = tolerance
        self.requests = 0
        self.violations = 0
        self.self_seconds: dict[str, float] = defaultdict(float)
        #: spans, kernel measure calls, solves, Gram builds and Gram-cache
        #: lookups/hits seen by the solver.
        self.counts: dict[str, int] = defaultdict(int)
        self.outside_seconds = 0.0
        self.client_seconds = 0.0
        #: largest per-request |outside + self times - client| / client.
        self.worst_gap = 0.0

    def add(self, spans, client_seconds: float) -> None:
        self.requests += 1
        self.client_seconds += client_seconds
        slack = self.tolerance * client_seconds
        by_id = {span.span_id: span for span in spans}
        children = defaultdict(list)
        roots, sound = [], True
        for span in spans:
            parent = by_id.get(span.parent_id)
            if parent is None:
                roots.append(span)  # the root, or an orphan whose parent was lost
                continue
            children[span.parent_id].append(span)
            if span.start < parent.start - slack or span.end > parent.end + slack:
                sound = False
        for siblings in children.values():
            siblings.sort(key=lambda span: span.start)
            if any(b.start < a.end - slack for a, b in zip(siblings, siblings[1:])):
                sound = False
        attributed = 0.0
        for span in spans:
            own = max(span.duration - sum(c.duration for c in children[span.span_id]), 0.0)
            attributed += own
            self.self_seconds[layer_of(span.name)] += own
            if span.name.startswith("plan.stage."):
                self.self_seconds["stage." + span.name[len("plan.stage."):]] += own
            if span.name.startswith("kernel.measure."):
                self.counts["measure_calls"] += 1
            elif span.name == "solve.build_normal_equations":
                self.counts["gram_builds"] += 1
            elif span.name == "solve.least_squares":
                self.counts["solves"] += 1
                if "gram_cache_hit" in span.attributes:
                    self.counts["gram_lookups"] += 1
                    self.counts["gram_hits"] += bool(span.attributes["gram_cache_hit"])
        self.counts["spans"] += len(spans)
        if len(roots) != 1 or roots[0].name != "service.request":
            self.violations += 1
            return
        root = roots[0]
        outside = client_seconds - root.duration
        self.outside_seconds += outside
        gap = abs(outside + attributed - client_seconds)
        self.worst_gap = max(self.worst_gap, gap / client_seconds)
        if (
            not sound
            or outside < -slack
            or gap > slack
            or any(span.trace_id != root.trace_id for span in spans)
        ):
            self.violations += 1

    def per_request_ms(self, key: str) -> float:
        return 1e3 * self.self_seconds.get(key, 0.0) / max(self.requests, 1)

    def closure(self) -> float:
        """Relative gap between (outside + all self time) and client time,
        over all requests."""
        total = self.outside_seconds + sum(
            v for k, v in self.self_seconds.items() if not k.startswith("stage.")
        )
        return abs(total - self.client_seconds) / self.client_seconds
