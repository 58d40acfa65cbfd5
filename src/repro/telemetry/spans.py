"""Hierarchical tracing: spans, the :class:`Tracer`, and the active-tracer hook.

A *span* is one timed operation — a service request, a plan stage, a kernel
measurement, a solver call — with a ``trace_id`` shared by everything done on
behalf of the same request, a unique ``span_id``, and the ``parent_id`` of the
enclosing span.  Nesting is automatic: each :class:`Tracer` keeps a
*thread-local* stack of open spans, so an instrumented callee attaches under
whatever span its caller opened in the same thread, and concurrent requests on
different scheduler threads can never leak spans into each other's traces.

Instrumented library code does not take a tracer parameter.  It calls
:func:`trace_span`, which resolves the *active* tracer of the current thread —
installed by :func:`activate` (the service scheduler activates its tracer for
the duration of each request) and defaulting to the process-wide
:data:`NULL_TRACER`.  The null tracer's :meth:`~NullTracer.span` returns one
shared no-op handle and records nothing, so uninstrumented deployments pay a
single thread-local read plus one no-argument method call per seam.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from .clock import DEFAULT_CLOCK, Clock

__all__ = [
    "Span",
    "SpanHandle",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "activate",
    "trace_span",
]


@dataclass
class Span:
    """One finished, immutable-by-convention trace record.

    ``start``/``end`` are clock seconds (monotonic, not wall time); ``status``
    is ``"ok"`` or ``"error"`` (with the exception type under
    ``attributes["error.type"]``); ``thread`` is the name of the thread the
    span ran on, which exporters use as the Chrome-trace thread lane.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    end: float
    thread: str
    attributes: dict = field(default_factory=dict)
    status: str = "ok"

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-ready representation (used by the JSON-lines exporter)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "thread": self.thread,
            "status": self.status,
            "attributes": dict(self.attributes),
        }


class SpanHandle:
    """An open span: a context manager that finishes the span on exit.

    Attributes set after entry (costs, cache hits, iteration counts — values
    only known once the work ran) land on the finished :class:`Span`.  An
    exception propagating through the block marks the span ``"error"`` and
    stores the exception type; the exception itself is never swallowed.
    """

    __slots__ = ("_tracer", "trace_id", "span_id", "parent_id", "name", "attributes", "_start")

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        attributes: dict,
    ):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attributes = attributes
        self._start = 0.0

    def set_attribute(self, key: str, value) -> None:
        self.attributes[key] = value

    def set_attributes(self, **attributes) -> None:
        self.attributes.update(attributes)

    def __enter__(self) -> "SpanHandle":
        self._tracer._push(self)
        self._start = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = self._tracer._clock()
        self._tracer._pop(self)
        status = "ok"
        if exc_type is not None:
            status = "error"
            self.attributes["error.type"] = exc_type.__name__
        self._tracer._record(
            Span(
                trace_id=self.trace_id,
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start=self._start,
                end=end,
                thread=threading.current_thread().name,
                attributes=self.attributes,
                status=status,
            )
        )
        return False


class Tracer:
    """Collects hierarchical spans with a thread-local open-span context.

    ``clock`` is injectable (see :mod:`repro.telemetry.clock`); ``max_spans``
    bounds memory for long-lived services by dropping the *oldest* finished
    spans once the buffer is full (a long-running deployment should drain
    with :meth:`drain` or export periodically instead of relying on the cap).

    Trace and span ids are deterministic counters — the service derives one
    trace per request, so ids need to be unique and readable, not
    unpredictable (they carry no private information).
    """

    def __init__(self, clock: Clock | None = None, max_spans: int | None = None):
        self._clock = clock if clock is not None else DEFAULT_CLOCK
        self.max_spans = max_spans
        self._spans: list[Span] = []
        self._dropped = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Span creation.
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes) -> SpanHandle:
        """Open a span named ``name`` under the current thread's context.

        With no open parent in this thread the span starts a new trace; with
        an open parent it joins the parent's trace and records the parent
        link.
        ``attributes`` seed the span's structured attributes; more can be set
        on the returned handle while the span is open.
        """
        parent = self.current_span()
        if parent is not None:
            trace = parent.trace_id
            parent_id = parent.span_id
        else:
            trace = f"trace-{next(self._trace_ids)}"
            parent_id = None
        return SpanHandle(
            self, trace, f"span-{next(self._span_ids)}", parent_id, name, attributes
        )

    def current_span(self) -> SpanHandle | None:
        """The innermost open span of the *current thread*, if any."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        return stack[-1]

    # ------------------------------------------------------------------
    # Internal bookkeeping (called by SpanHandle).
    # ------------------------------------------------------------------
    def _push(self, handle: SpanHandle) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(handle)

    def _pop(self, handle: SpanHandle) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is handle:
            stack.pop()
        elif stack and handle in stack:  # pragma: no cover - defensive
            stack.remove(handle)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            if self.max_spans is not None and len(self._spans) > self.max_spans:
                overflow = len(self._spans) - self.max_spans
                del self._spans[:overflow]
                self._dropped += overflow

    # ------------------------------------------------------------------
    # Reading the buffer.
    # ------------------------------------------------------------------
    def spans(self) -> list[Span]:
        """A snapshot copy of the finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def traces(self) -> dict[str, list[Span]]:
        """Finished spans grouped by trace id (each list in completion order)."""
        grouped: dict[str, list[Span]] = {}
        for span in self.spans():
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def trace(self, trace_id: str) -> list[Span]:
        """All finished spans of one trace."""
        return [span for span in self.spans() if span.trace_id == trace_id]

    def drain(self) -> list[Span]:
        """Remove and return all finished spans (for periodic exporting)."""
        with self._lock:
            drained, self._spans = self._spans, []
            return drained

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    @property
    def dropped(self) -> int:
        """Spans discarded because the buffer hit ``max_spans``."""
        with self._lock:
            return self._dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def stats(self) -> dict:
        with self._lock:
            spans = list(self._spans)
            dropped = self._dropped
        return {
            "enabled": True,
            "num_spans": len(spans),
            "num_traces": len({span.trace_id for span in spans}),
            "dropped": dropped,
        }


class _NoopSpan:
    """The disabled-mode span: one shared instance, every method a no-op."""

    __slots__ = ()

    trace_id = None
    span_id = None
    parent_id = None
    name = None
    attributes: dict = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value) -> None:
        pass

    def set_attributes(self, **attributes) -> None:
        pass


#: The one no-op handle every disabled span call returns (no allocation).
NOOP_SPAN = _NoopSpan()


class NullTracer:
    """The no-op tracer installed by default.

    Every ``span()`` call returns the same shared :data:`NOOP_SPAN` handle and
    nothing is ever recorded, so instrumentation left in place costs only the
    call itself when tracing is off.
    """

    def span(self, name: str | None = None, **attributes):
        return NOOP_SPAN

    def current_span(self) -> None:
        return None

    def spans(self) -> list[Span]:
        return []

    def traces(self) -> dict[str, list[Span]]:
        return {}

    def trace(self, trace_id: str) -> list[Span]:
        return []

    def drain(self) -> list[Span]:
        return []

    def clear(self) -> None:
        pass

    @property
    def dropped(self) -> int:
        return 0

    def __len__(self) -> int:
        return 0

    def stats(self) -> dict:
        return {"enabled": False, "num_spans": 0, "num_traces": 0, "dropped": 0}


#: Process-wide disabled tracer; ``current_tracer()`` falls back to it.
NULL_TRACER = NullTracer()

#: Thread-local slot holding the tracer activated for the current thread.
_ACTIVE = threading.local()


def current_tracer() -> Tracer | NullTracer:
    """The tracer instrumented code should emit to on this thread."""
    return getattr(_ACTIVE, "tracer", NULL_TRACER)


class activate:
    """Install ``tracer`` as the current thread's active tracer.

    A context manager (re-entrant via save/restore) used by the scheduler to
    scope its tracer to one request's execution on one worker thread::

        with activate(tracer), tracer.span("service.request", ...):
            ...  # kernel/plan/solver spans nest automatically
    """

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer | NullTracer):
        self._tracer = tracer
        self._previous = NULL_TRACER

    def __enter__(self):
        self._previous = getattr(_ACTIVE, "tracer", NULL_TRACER)
        _ACTIVE.tracer = self._tracer
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ACTIVE.tracer = self._previous
        return False


def trace_span(name: str, **attributes):
    """Open a span on the current thread's active tracer (no-op by default).

    This is the single hook every instrumented seam calls — kernel operators,
    plan stages, the least-squares solver.  When no tracer is active it
    returns the shared :data:`NOOP_SPAN` immediately.
    """
    tracer = getattr(_ACTIVE, "tracer", NULL_TRACER)
    if tracer is NULL_TRACER:
        return NOOP_SPAN
    return tracer.span(name, **attributes)
