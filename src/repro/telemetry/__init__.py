"""Execution tracing + metrics for the query path.

* :mod:`repro.telemetry.tracer` — hierarchical spans, a null tracer as the
  zero-cost disabled default, :func:`tracing` to turn recording on;
* :mod:`repro.telemetry.metrics` — counters / gauges / histograms behind a
  :class:`MetricsRegistry` (the planner's instrumentation store);
* :mod:`repro.telemetry.export` — dict, Chrome ``chrome://tracing``
  trace-event, and fixed-width text exporters;
* :mod:`repro.telemetry.obslog` — the structured JSON-lines query log with
  stable query IDs and slow-query EXPLAIN ANALYZE capture;
* :mod:`repro.telemetry.resources` — per-query resource accounting and
  soft/hard budgets;
* :mod:`repro.telemetry.context` — the per-query context (trace id,
  tracer, innermost span, resource monitor, cache bypass) in one
  ``ContextVar``;
* :mod:`repro.telemetry.routes` — the route table, request/response
  types and JSON/HTML/error bodies of the one HTTP front
  (:class:`repro.service.MetricsServer` serves ``/metrics``,
  ``/healthz`` and ``/debug/*`` on it);
* :mod:`repro.telemetry.profiler` — the span-aware sampling wall-clock
  profiler: folded-stack / speedscope flamegraph exports, per-trace
  sample attribution, and GC health gauges.

See ``docs/OBSERVABILITY.md`` for the full tour and
:meth:`repro.engine.Session.analyze` for EXPLAIN ANALYZE built on top.
"""

from .context import (
    QueryContext,
    current,
    current_trace_id,
    new_trace_id,
    scoped,
)
from .metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    NodeStatsCollector,
)
from .obslog import (
    QueryLog,
    QueryObservation,
    validate_obslog,
)
from .profiler import (
    DEFAULT_HZ,
    SamplingProfiler,
    current_profiler,
    folded_text,
    gc_summary,
    profiling,
    to_speedscope,
    validate_folded,
    validate_speedscope,
    write_speedscope,
)
from .resources import (
    ResourceBudget,
    ResourceBudgetExceeded,
    ResourceMonitor,
    ResourceUsage,
    account_rows,
    account_subquery,
)
from .routes import PROMETHEUS_CONTENT_TYPE
from .tracer import (
    Span,
    Tracer,
    current_tracer,
    tracing,
)
from .export import (
    SPAN_ATTR_TYPES,
    aggregate_spans,
    render_stage_breakdown,
    render_trace,
    trace_to_dict,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "QueryContext",
    "current",
    "current_trace_id",
    "new_trace_id",
    "scoped",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NodeStatsCollector",
    "QueryLog",
    "QueryObservation",
    "validate_obslog",
    "DEFAULT_HZ",
    "SamplingProfiler",
    "current_profiler",
    "folded_text",
    "gc_summary",
    "profiling",
    "to_speedscope",
    "validate_folded",
    "validate_speedscope",
    "write_speedscope",
    "PROMETHEUS_CONTENT_TYPE",
    "ResourceBudget",
    "ResourceBudgetExceeded",
    "ResourceMonitor",
    "ResourceUsage",
    "account_rows",
    "account_subquery",
    "Span",
    "Tracer",
    "current_tracer",
    "tracing",
    "SPAN_ATTR_TYPES",
    "aggregate_spans",
    "render_stage_breakdown",
    "render_trace",
    "trace_to_dict",
    "validate_chrome_trace",
    "write_chrome_trace",
]
