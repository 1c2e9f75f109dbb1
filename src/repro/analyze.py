"""EXPLAIN ANALYZE: the static profile joined with the execution trace.

:func:`build_report` takes the planner's memoized
:class:`~repro.wdpt.explain.WDPTProfile` (what the paper's theorems
*predict*: per-node widths, interface sizes, engine routing) and a
:class:`~repro.telemetry.tracer.Tracer` recorded while the query actually
ran (what *happened*: per-node wall time, candidate-mapping counts,
extension attempts, semijoin intermediate sizes) and joins them per tree
node into an :class:`AnalyzeReport`.

The measured side comes from the ``node_stats`` attribute that
:func:`repro.wdpt.evaluation.maximal_homomorphisms` (top-down path) and
:func:`repro.wdpt.eval_tractable.eval_tractable` (Theorem 6 DP, whose
per-node CQ checks the session routes through its planner) attach to
their spans, plus the aggregated engine spans (``yannakakis.*``,
``planner.*``).  A node row names the engine that *ran* there, which on
a cyclic label differs between the two (``_EVALUATOR_MODES`` below).

Entry point: :meth:`repro.engine.Session.analyze`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .planner.plan import ENGINE_NAIVE
from .planner.planner import Planner
from .table import format_table
from .telemetry.export import aggregate_spans, render_stage_breakdown, trace_to_dict
from .telemetry.insight import q_error
from .telemetry.tracer import Tracer
from .wdpt.explain import WDPTProfile
from .wdpt.wdpt import WDPT

#: Span names whose ``node_stats`` attribute carries per-tree-node rows.
_NODE_STATS_SPANS = ("wdpt.maximal_homomorphisms", "wdpt.eval_tractable")

#: Modes run by the top-down evaluator, which does not consult the planner
#: (:meth:`repro.wdpt.evaluation._TreeEvaluation.node_relation`): an acyclic
#: label is one seeded Yannakakis run, as the planner would have it, but a
#: cyclic one is searched per interface key — the decomposition engine
#: would materialise a whole bag before the key could filter anything.
_EVALUATOR_MODES = ("query", "query_maximal")
_PER_KEY_SEARCH = "no join tree: backtracking search, once per distinct interface key"


class AnalyzeReport:
    """The result of ``EXPLAIN ANALYZE``: one row per tree node, plus the
    per-stage time rollup and (optionally) the answer count.

    Attributes
    ----------
    rows:
        One dict per tree node, pre-order: static fields (``depth``,
        ``atoms``, ``treewidth``, ``interface``, ``engine``, ``theorem``)
        joined with measured fields (``seconds``, ``candidates``,
        ``extensions``, ``sat_checks``, …; 0 when the node was never
        touched).
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

    def q_error_summary(self) -> Dict[str, float]:
        """Distribution of per-node q-errors (nodes with an estimate and
        measured candidates): count / p50 / p95 / max / mean."""
        errors = sorted(
            row["q_error"] for row in self.rows if row.get("q_error") is not None
        )
        if not errors:
            return {"count": 0, "p50": 0.0, "p95": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": len(errors),
            "p50": _percentile(errors, 0.50),
            "p95": _percentile(errors, 0.95),
            "max": errors[-1],
            "mean": sum(errors) / len(errors),
        }

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
            "q_error": self.q_error_summary(),
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
                    row.get("kernel") or "-",
                    _fmt_seconds(row["seconds"]),
                    _fmt_estimate(row.get("est_rows"), row.get("est_method")),
                    int(row["candidates"]),
                    _fmt_q_error(row.get("q_error")),
                    int(row["extensions"]),
                    int(row["sat_checks"]),
                ]
            )
        node_table = format_table(
            ["tree node", "atoms", "tw", "iface", "engine", "kernel", "time",
             "est rows", "candidates", "q-err", "extensions", "cq checks"],
            table_rows,
        )
        summary = self.q_error_summary()
        if summary["count"]:
            header.append(
                "estimate quality: q-error p50 %.2f, p95 %.2f, max %.2f over %d node(s)"
                % (summary["p50"], summary["p95"], summary["max"], summary["count"])
            )
        stage_table = render_stage_breakdown(self.tracer)
        return "\n".join(header) + "\n\n" + node_table + "\n\n" + stage_table

    def __repr__(self) -> str:
        return self.as_text()


def build_report(
    p: WDPT,
    profile: WDPTProfile,
    tracer: Tracer,
    planner: Planner,
    n_answers: Optional[int] = None,
    mode: str = "query",
    db: Optional[Any] = None,
) -> AnalyzeReport:
    """Join the static profile with the measured trace, per tree node.

    ``db`` (the session's storage backend, when available) lets each
    Yannakakis-routed node report the relational kernel its CQ checks
    resolve to (``sql``/``columnar``)."""
    measured = _merge_node_stats(tracer)
    tree_profile = profile.tree_profile
    rows: List[Dict[str, Any]] = []
    for node in p.tree.nodes():
        node_profile = tree_profile.node_profile(node)
        plan = planner.plan_for_profile("", node_profile, db)
        engine, theorem = plan.engine, plan.theorem
        if mode in _EVALUATOR_MODES and not node_profile.is_acyclic:
            engine, theorem = ENGINE_NAIVE, _PER_KEY_SEARCH
        stats = measured.get(node, {})
        candidates = stats.get("candidates", 0)
        estimate = _node_estimate(p, tree_profile, planner, node, db)
        rows.append(
            {
                "node": node,
                "depth": p.tree.depth(node),
                "parent": p.tree.parent(node),
                "atoms": len(p.labels[node]),
                "treewidth": profile.node_treewidths[node],
                "hypertreewidth": profile.node_hypertreewidths[node],
                "interface": profile.node_interfaces[node],
                "engine": engine,
                "kernel": plan.kernel,
                "theorem": theorem,
                "seconds": float(stats.get("seconds", 0.0)),
                "candidates": candidates,
                "extensions": stats.get("extensions", 0),
                "sat_checks": stats.get("sat_checks", 0),
                "in_calls": stats.get("in_calls", 0),
                "blocked_checks": stats.get("blocked_checks", 0),
                "est_rows": None if estimate is None else estimate.estimated_rows,
                "est_method": None if estimate is None else estimate.method,
                "q_error": (
                    None
                    if estimate is None or not candidates
                    else q_error(estimate.estimated_rows, candidates)
                ),
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


def _node_estimate(
    p: WDPT, tree_profile: Any, planner: Planner, node: int, db: Optional[Any]
):
    """The planner's cardinality estimate for the root→``node`` *path* CQ.

    A node's measured ``candidates`` counts the candidate mappings seen
    there — in the top-down evaluator these are exactly the
    homomorphisms of the CQ made of all atoms from the root down to the
    node, so that path CQ (not the node label alone) is the estimand the
    AGM bound must cover.  Path profiles are rooted subtrees, hence
    memoized by :meth:`~repro.planner.profile.TreeProfile.subtree_profile`,
    and the estimate itself is memoized by the planner."""
    if db is None:
        return None
    path = []
    current: Optional[int] = node
    while current is not None:
        path.append(current)
        current = p.tree.parent(current)
    try:
        path_profile = tree_profile.subtree_profile(frozenset(path))
        return planner.estimate_for_profile(path_profile, db)
    except Exception:  # estimation must never break EXPLAIN ANALYZE
        return None


def _merge_node_stats(tracer: Tracer) -> Dict[int, Dict[str, float]]:
    """Sum the ``node_stats`` attributes of every evaluator span."""
    merged: Dict[int, Dict[str, float]] = {}
    for name in _NODE_STATS_SPANS:
        for span in tracer.find(name):
            stats = span.attrs.get("node_stats")
            if not isinstance(stats, dict):
                continue
            for node, fields in stats.items():
                row = merged.setdefault(int(node), {})
                for field, amount in fields.items():
                    row[field] = row.get(field, 0) + amount
    return merged


def _fmt_opt(value: Optional[int]) -> str:
    return "?" if value is None else str(value)


def _fmt_estimate(rows: Optional[float], method: Optional[str]) -> str:
    if rows is None:
        return "-"
    tag = {"agm": "≤", "independence": "≈", "trivial": "="}.get(method or "", "≈")
    return "%s%.4g" % (tag, rows)


def _fmt_q_error(value: Optional[float]) -> str:
    return "-" if value is None else "%.2f" % value


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1:
        return "%.2fs" % seconds
    if seconds >= 1e-3:
        return "%.2fms" % (seconds * 1e3)
    return "%.0fµs" % (seconds * 1e6)
