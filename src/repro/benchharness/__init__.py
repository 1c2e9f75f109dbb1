"""Measurement harness: sweeps, growth estimates, table rendering."""

from .reporting import format_planner_stats, format_series_table, format_table
from .runner import DEFAULT_STAGES, Series, stage_breakdown, time_callable

__all__ = [
    "DEFAULT_STAGES",
    "format_planner_stats",
    "format_series_table",
    "format_table",
    "Series",
    "stage_breakdown",
    "time_callable",
]
