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
    DEFAULT_QUANTILES,
    Gauge,
    Histogram,
    MetricsRegistry,
    NodeStatsCollector,
    quantile_key,
)
from .obslog import (
    OBSLOG_SCHEMA,
    QueryLog,
    QueryObservation,
    validate_obslog,
)
from .profiler import (
    DEFAULT_HZ,
    GCMonitor,
    PROFILE_SCHEMA,
    SamplingProfiler,
    current_profiler,
    folded_stacks,
    folded_text,
    gc_summary,
    profiling,
    span_phase,
    summarize_samples,
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
    current_monitor,
)
from .routes import PROMETHEUS_CONTENT_TYPE
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    current_tracer,
    trace_span,
    tracing,
)
from .export import (
    SPAN_ATTR_TYPES,
    aggregate_spans,
    from_chrome_trace,
    render_stage_breakdown,
    render_trace,
    to_chrome_trace,
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
    "DEFAULT_QUANTILES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NodeStatsCollector",
    "quantile_key",
    "OBSLOG_SCHEMA",
    "QueryLog",
    "QueryObservation",
    "validate_obslog",
    "DEFAULT_HZ",
    "GCMonitor",
    "PROFILE_SCHEMA",
    "SamplingProfiler",
    "current_profiler",
    "folded_stacks",
    "folded_text",
    "gc_summary",
    "profiling",
    "span_phase",
    "summarize_samples",
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
    "current_monitor",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "current_tracer",
    "trace_span",
    "tracing",
    "SPAN_ATTR_TYPES",
    "aggregate_spans",
    "from_chrome_trace",
    "render_stage_breakdown",
    "render_trace",
    "to_chrome_trace",
    "trace_to_dict",
    "validate_chrome_trace",
    "write_chrome_trace",
]
