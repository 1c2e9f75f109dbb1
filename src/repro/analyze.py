"""EXPLAIN ANALYZE: the static profile joined with the execution trace.

:func:`build_report` takes the planner's memoized
:class:`~repro.wdpt.explain.WDPTProfile` (what the paper's theorems
*predict*: per-node widths, interface sizes) and a
:class:`~repro.telemetry.tracer.Tracer` recorded while the query actually
ran (what *happened*: per-node engines, wall time, candidate-mapping
counts, extension attempts, semijoin intermediate sizes) and joins them
per tree node into an :class:`AnalyzeReport`.

The measured side comes from the ``node_stats`` attribute that
:func:`repro.wdpt.evaluation.maximal_homomorphisms` (top-down path) and
:func:`repro.wdpt.eval_tractable.eval_tractable` (Theorem 6 DP, whose
per-node CQ checks the session routes through its planner) attach to
their spans, plus the aggregated engine spans (``yannakakis.*``,
``planner.*``).  Both count the plan engines that ran at each node, so a
node row names what ran there, read from the trace.

Entry point: :meth:`repro.engine.Session.analyze`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .table import format_table
from .telemetry.export import aggregate_spans, render_stage_breakdown, trace_to_dict
from .telemetry.tracer import Tracer
from .wdpt.explain import WDPTProfile
from .wdpt.wdpt import WDPT

#: Span names whose ``node_stats`` attribute carries per-tree-node rows.
_NODE_STATS_SPANS = ("wdpt.maximal_homomorphisms", "wdpt.eval_tractable")


class AnalyzeReport:
    """The result of ``EXPLAIN ANALYZE``: one row per tree node, plus the
    per-stage time rollup and (optionally) the answer count.

    Attributes
    ----------
    rows:
        One dict per tree node, pre-order: static fields (``depth``,
        ``atoms``, ``treewidth``, ``interface``) joined with measured
        fields (``engine`` and its per-engine counts ``engines``,
        ``seconds``, ``candidates``, ``extensions``, ``sat_checks``, …; 0,
        ``{}`` and engine ``-`` when the node was never touched).
    stages:
        ``{span name: {"calls", "seconds"}}`` aggregated over the trace.
    tracer:
        The raw trace, for the Chrome exporter.
    """

    def __init__(
        self,
        query: WDPT,
        profile: WDPTProfile,
        rows: List[Dict[str, Any]],
        stages: Dict[str, Dict[str, float]],
        tracer: Tracer,
        n_answers: Optional[int] = None,
        mode: str = "query",
    ):
        self.query = query
        self.profile = profile
        self.rows = rows
        self.stages = stages
        self.tracer = tracer
        self.n_answers = n_answers
        self.mode = mode

    def node_row(self, node: int) -> Dict[str, Any]:
        for row in self.rows:
            if row["node"] == node:
                return row
        raise KeyError("no report row for node %d" % node)

    def total_seconds(self) -> float:
        return sum(root.duration for root in self.tracer.roots)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (the CLI's ``--json`` payload)."""
        return {
            "mode": self.mode,
            "fingerprint": self.profile.fingerprint,
            "eval_route": self.profile.eval_route(),
            "partial_eval_route": self.profile.partial_eval_route(),
            "answers": self.n_answers,
            "total_seconds": self.total_seconds(),
            "nodes": self.rows,
            "stages": self.stages,
            "trace": trace_to_dict(self.tracer),
        }

    def as_text(self) -> str:
        """The tree-shaped EXPLAIN ANALYZE report."""
        header = [
            "EXPLAIN ANALYZE (%s) — fingerprint %s"
            % (self.mode, self.profile.fingerprint[:12]),
            "routes: %s | %s"
            % (self.profile.eval_route(), self.profile.partial_eval_route()),
        ]
        if self.n_answers is not None:
            header.append(
                "%d answer(s) in %s"
                % (self.n_answers, _fmt_seconds(self.total_seconds()))
            )
        else:
            header.append("decided in %s" % _fmt_seconds(self.total_seconds()))

        table_rows: List[List[object]] = []
        for row in self.rows:
            indent = "  " * row["depth"]
            marker = "" if row["depth"] == 0 else "└ "
            table_rows.append(
                [
                    "%s%snode %d" % (indent, marker, row["node"]),
                    row["atoms"],
                    _fmt_opt(row["treewidth"]),
                    row["interface"],
                    row["engine"],
                    _fmt_seconds(row["seconds"]),
                    int(row["candidates"]),
                    int(row["extensions"]),
                    int(row["sat_checks"]),
                ]
            )
        node_table = format_table(
            ["tree node", "atoms", "tw", "iface", "engine", "time",
             "candidates", "extensions", "cq checks"],
            table_rows,
        )
        stage_table = render_stage_breakdown(self.tracer)
        return "\n".join(header) + "\n\n" + node_table + "\n\n" + stage_table

    def __repr__(self) -> str:
        return self.as_text()


def build_report(
    p: WDPT,
    profile: WDPTProfile,
    tracer: Tracer,
    n_answers: Optional[int] = None,
    mode: str = "query",
) -> AnalyzeReport:
    """Join the static profile with the measured trace, per tree node."""
    measured = _merge_node_stats(tracer)
    rows: List[Dict[str, Any]] = []
    for node in p.tree.nodes():
        stats = measured.get(node, {})
        engines = stats.get("engines", {})
        rows.append(
            {
                "node": node,
                "depth": p.tree.depth(node),
                "parent": p.tree.parent(node),
                "atoms": len(p.labels[node]),
                "treewidth": profile.node_treewidths[node],
                "hypertreewidth": profile.node_hypertreewidths[node],
                "interface": profile.node_interfaces[node],
                "engine": _fmt_engines(engines),
                "engines": engines,
                "seconds": float(stats.get("seconds", 0.0)),
                "candidates": stats.get("candidates", 0),
                "extensions": stats.get("extensions", 0),
                "sat_checks": stats.get("sat_checks", 0),
                "in_calls": stats.get("in_calls", 0),
                "blocked_checks": stats.get("blocked_checks", 0),
            }
        )
    # The root of the top-down evaluator has no per-child timer around it;
    # fall back to the enclosing evaluator span so its time is not zero.
    if rows and rows[0]["seconds"] == 0.0:
        enclosing = sum(
            span.duration for name in _NODE_STATS_SPANS for span in tracer.find(name)
        )
        children_seconds = sum(row["seconds"] for row in rows[1:])
        rows[0]["seconds"] = max(0.0, enclosing - children_seconds)
    return AnalyzeReport(
        p,
        profile,
        rows,
        aggregate_spans(tracer),
        tracer,
        n_answers=n_answers,
        mode=mode,
    )


def _merge_node_stats(tracer: Tracer) -> Dict[int, Dict[str, Any]]:
    """Sum the ``node_stats`` attributes of every evaluator span."""
    merged: Dict[int, Dict[str, Any]] = {}
    for name in _NODE_STATS_SPANS:
        for span in tracer.find(name):
            stats = span.attrs.get("node_stats")
            if not isinstance(stats, dict):
                continue
            for node, fields in stats.items():
                row = merged.setdefault(int(node), {})
                for field, amount in fields.items():
                    if isinstance(amount, dict):  # engines: {engine: count}
                        counts = row.setdefault(field, {})
                        for engine, n in amount.items():
                            counts[engine] = counts.get(engine, 0) + n
                    else:
                        row[field] = row.get(field, 0) + amount
    return merged


def _fmt_engines(engines: Dict[str, int]) -> str:
    """``yannakakis`` for one engine, ``naive×1, probe×2`` for several,
    ``-`` for a node nothing ran at."""
    if len(engines) <= 1:
        return next(iter(engines), "-")
    return ", ".join("%s×%d" % item for item in sorted(engines.items()))


def _fmt_opt(value: Optional[int]) -> str:
    return "?" if value is None else str(value)


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1:
        return "%.2fs" % seconds
    if seconds >= 1e-3:
        return "%.2fms" % (seconds * 1e3)
    return "%.0fµs" % (seconds * 1e6)
