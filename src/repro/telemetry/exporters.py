"""Exporters: JSON-lines spans, Chrome trace-event files, Prometheus text.

Three operator-facing serialisations of the in-memory telemetry:

* :func:`spans_to_jsonlines` — one JSON object per finished span, ordered by
  start time; greppable, ingestible by any log pipeline.
* :func:`spans_to_chrome_trace` — the Chrome ``chrome://tracing`` /
  Perfetto trace-event JSON format (``"X"`` complete events, microsecond
  timestamps, one lane per thread), so a service request renders as a flame
  graph of plan stages, kernel measurements and solver calls.
* :func:`prometheus_text` — the Prometheus text exposition format over a
  :class:`~repro.telemetry.metrics.MetricsRegistry` (counters as ``_total``,
  histograms as cumulative ``_bucket{le=...}`` series); a scheduler's
  registry as of now is :func:`repro.service.export.request_metrics`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

from .metrics import MetricsRegistry
from .spans import Span

__all__ = [
    "spans_to_jsonlines",
    "spans_to_chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
]


# ----------------------------------------------------------------------------
# JSON lines.
# ----------------------------------------------------------------------------
def spans_to_jsonlines(spans: Iterable[Span]) -> str:
    """Serialise spans to newline-delimited JSON, ordered by start time."""
    ordered = sorted(spans, key=lambda span: (span.start, span.span_id))
    return "\n".join(json.dumps(span.to_dict(), sort_keys=True, default=float) for span in ordered)


# ----------------------------------------------------------------------------
# Chrome trace-event format.
# ----------------------------------------------------------------------------
def spans_to_chrome_trace(spans: Sequence[Span]) -> dict:
    """Build a Chrome/Perfetto trace-event document from finished spans.

    Timestamps are rebased to the earliest span start (the viewer expects
    small positive microsecond offsets, not raw ``perf_counter`` values) and
    each thread gets a named lane in the one ``"repro.service"`` process,
    so concurrent requests on scheduler workers show up side by side.
    """
    spans = sorted(spans, key=lambda span: (span.start, span.span_id))
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "repro.service"},
        }
    ]
    base = spans[0].start if spans else 0.0
    thread_ids: dict[str, int] = {}
    for span in spans:
        tid = thread_ids.get(span.thread)
        if tid is None:
            tid = thread_ids[span.thread] = len(thread_ids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": span.thread},
                }
            )
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": (span.start - base) * 1e6,
                "dur": span.duration * 1e6,
                "args": {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "status": span.status,
                    **{str(k): v for k, v in span.attributes.items()},
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[Span], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(spans_to_chrome_trace(spans), indent=2, default=float) + "\n")
    return path


# ----------------------------------------------------------------------------
# Prometheus text exposition.
# ----------------------------------------------------------------------------
def _metric_name(name: str, suffix: str = "") -> str:
    sanitised = "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in name)
    return sanitised + suffix


def _escape_label_value(value: str) -> str:
    # Prometheus exposition format: backslash, double-quote and newline are
    # the three characters that must be escaped inside label values.
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(pairs, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = tuple(pairs) + tuple(extra)
    if not items:
        return ""
    rendered = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return f"{{{rendered}}}"


def _number(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Serialise a registry in the Prometheus text exposition format."""
    counters, _, histograms = registry.instruments()
    lines: list[str] = []
    seen_types: set[str] = set()

    def _header(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for counter in sorted(counters, key=lambda c: (c.name, c.labels)):
        name = _metric_name(counter.name, "_total")
        _header(name, "counter")
        lines.append(f"{name}{_labels(counter.labels)} {_number(counter.value)}")
    for histogram in sorted(histograms, key=lambda h: (h.name, h.labels)):
        name = _metric_name(histogram.name)
        _header(name, "histogram")
        cumulative = 0
        for bound, count in zip(histogram.bounds, histogram.counts):
            cumulative += count
            lines.append(
                f"{name}_bucket"
                f"{_labels(histogram.labels, (('le', _number(bound)),))} {cumulative}"
            )
        cumulative += histogram.counts[-1]
        lines.append(
            f"{name}_bucket{_labels(histogram.labels, (('le', '+Inf'),))} {cumulative}"
        )
        lines.append(f"{name}_sum{_labels(histogram.labels)} {_number(histogram.total)}")
        lines.append(f"{name}_count{_labels(histogram.labels)} {histogram.count}")
    return "\n".join(lines) + ("\n" if lines else "")
