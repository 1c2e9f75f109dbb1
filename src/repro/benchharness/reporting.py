"""Fixed-width tables for benchmark output.

The benchmarks print rows that mirror the paper's Tables 1 and 2 and the
two figures; this module keeps the formatting in one place.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from ..table import format_seconds, format_table
from .runner import Series


def format_series_table(
    series_list: Sequence[Series],
    parameter_name: str = "n",
    cache_hit_rates: Optional[Mapping[str, float]] = None,
    stage_seconds: Optional[Mapping[str, Mapping[str, float]]] = None,
) -> str:
    """One row per parameter value, one column per series, plus a summary
    line with the log–log slope and step-growth ratio of each series.

    ``cache_hit_rates`` optionally maps series names to the planner's
    structural-cache hit rate for that run; matching series get a
    ``cache-hit`` summary row (``-`` for series without one, e.g. the
    naive backend that never consults the planner).

    ``stage_seconds`` optionally maps series names to a per-stage time
    breakdown (``{"analysis": s, "engine": s, "semijoin": s}`` from
    :func:`repro.benchharness.runner.stage_breakdown`); each stage becomes
    a ``t[stage]`` summary row, with ``-`` for series that have no
    measurement for it.
    """
    parameters = sorted({p for s in series_list for p, _ in s.points})
    headers = [parameter_name] + [s.name for s in series_list]
    lookup = [{p: sec for p, sec in s.points} for s in series_list]
    rows: List[List[object]] = []
    for p in parameters:
        row: List[object] = [_fmt_param(p)]
        for table in lookup:
            row.append(format_seconds(table.get(p)))
        rows.append(row)
    summary_slope: List[object] = ["slope≈"]
    summary_ratio: List[object] = ["step×"]
    for s in series_list:
        slope = s.loglog_slope()
        ratio = s.growth_ratio()
        summary_slope.append("%.2f" % slope if slope is not None else "-")
        summary_ratio.append("%.2f" % ratio if ratio is not None else "-")
    rows.append(summary_slope)
    rows.append(summary_ratio)
    if cache_hit_rates is not None:
        hit_row: List[object] = ["cache-hit"]
        for s in series_list:
            rate = cache_hit_rates.get(s.name)
            hit_row.append("%.0f%%" % (100 * rate) if rate is not None else "-")
        rows.append(hit_row)
    if stage_seconds is not None:
        stages: List[str] = []
        for breakdown in stage_seconds.values():
            for stage in breakdown:
                if stage not in stages:
                    stages.append(stage)
        for stage in stages:
            stage_row: List[object] = ["t[%s]" % stage]
            for s in series_list:
                breakdown = stage_seconds.get(s.name)
                stage_row.append(
                    format_seconds(breakdown[stage])
                    if breakdown is not None and stage in breakdown
                    else "-"
                )
            rows.append(stage_row)
    return format_table(headers, rows)


def format_planner_stats(stats: Mapping[str, object], title: str = "planner") -> str:
    """Render :meth:`repro.planner.planner.Planner.stats` (equivalently
    ``session.stats()``) as a table: cache hit rates, per-engine selection
    counts, analysis vs. engine time."""
    rows: List[List[object]] = []
    for cache_key in ("plan_cache", "parse_cache"):
        cache = stats.get(cache_key)
        if isinstance(cache, Mapping):
            rows.append(
                [
                    cache_key,
                    "%d/%d entries, %d hits, %d misses, %d evictions, %.0f%% hit rate"
                    % (
                        cache.get("size", 0),
                        cache.get("maxsize", 0),
                        cache.get("hits", 0),
                        cache.get("misses", 0),
                        cache.get("evictions", 0),
                        100 * float(cache.get("hit_rate", 0.0)),
                    ),
                ]
            )
    for key, label in (("subtree_profiles", "subtree profiles"),
                       ("decision_programs", "decision programs")):
        counts = stats.get(key)
        if isinstance(counts, Mapping):
            rows.append(
                [label, "%d hits, %d misses" % (counts.get("hits", 0), counts.get("misses", 0))]
            )
    selections = stats.get("engine_selections")
    if isinstance(selections, Mapping):
        rows.append(
            [
                "engine selections",
                ", ".join(
                    "%s×%d" % (engine, count)
                    for engine, count in sorted(selections.items())
                )
                or "-",
            ]
        )
    rows.append(["plans built", stats.get("plans_built", 0)])
    rows.append(["analysis time", format_seconds(float(stats.get("analysis_seconds", 0.0)))])
    rows.append(["engine time", format_seconds(float(stats.get("engine_seconds", 0.0)))])
    latency = stats.get("engine_latency")
    if isinstance(latency, Mapping):
        for engine in sorted(latency):
            snap = latency[engine]
            quantile_keys = [k for k in snap if k.startswith("p")]
            quantile_keys.sort(key=lambda k: float(k[1:]))
            rows.append(
                [
                    "latency[%s]" % engine,
                    "n=%d, %s, max %s"
                    % (
                        snap.get("count", 0),
                        ", ".join(
                            "%s %s" % (k, format_seconds(snap[k]))
                            for k in quantile_keys
                        ),
                        format_seconds(snap.get("max")),
                    ),
                ]
            )
    return format_table(["counter", "value"], rows, title=title)


def _fmt_param(p: float) -> str:
    return "%d" % p if float(p).is_integer() else "%.3g" % p
