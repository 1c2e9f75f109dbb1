"""Benchmark-owned span recorder and the outside-in instrumentation.

The traced run times the calls into each layer's public functions without
editing anything under ``src/``: :class:`Patches` rebinds a function (in
every ``repro`` module that imported it by name) or a method to a wrapper
that appends ``(name, start, end)`` to a :class:`Recorder`.  Parent links
are not tracked at record time; a wrapped call is properly nested inside
its caller on one thread, so :func:`nest` rebuilds the tree from interval
containment afterwards, and the same pass merges in the spans of the
repo's own :class:`repro.telemetry.tracer.Tracer` (same clock).

Self time = a span's duration minus the part covered by its children.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: One recorded span: (name, start, end), ``time.perf_counter`` seconds.
RawSpan = Tuple[str, float, float]

#: Tracer span-name prefixes that belong to a differently named layer.
_LAYER_ALIASES = {"session": "engine", "yannakakis": "cqalgs"}

#: (span name, "module:function" or "module:Class.method", count results?)
#: — the layer boundary calls the traced run wraps.  The span name's
#: first component is the layer (= module name under ``repro``).
TARGETS: Tuple[Tuple[str, str, bool], ...] = (
    ("service.from_body", "repro.service.protocol:QueryRequest.from_body", False),
    ("service.encode_result", "repro.service.protocol:encode_result", False),
    ("service.json_response", "repro.telemetry.routes:json_response", False),
    ("serialize.mapping_to_json", "repro.serialize:mapping_to_json", False),
    ("engine.query", "repro.engine:Session.query", False),
    ("engine.query_maximal", "repro.engine:Session.query_maximal", False),
    ("engine.ask", "repro.engine:Session.ask", False),
    ("engine.is_partial", "repro.engine:Session.is_partial", False),
    ("engine.is_maximal", "repro.engine:Session.is_maximal", False),
    ("engine.add_triples", "repro.engine:Session.add_triples", False),
    ("engine.remove", "repro.engine:Session.remove", False),
    ("rdf.parse_sparql", "repro.rdf.sparql:parse_sparql", False),
    ("rdf.parse_query", "repro.rdf.parser:parse_query", False),
    ("planner.profile_wdpt", "repro.planner.planner:Planner.profile_wdpt", False),
    ("planner.profile_cq", "repro.planner.planner:Planner.profile_cq", False),
    ("planner.plan_for_profile", "repro.planner.planner:Planner.plan_for_profile", False),
    ("planner.evaluate_cq", "repro.planner.planner:Planner.evaluate_cq", False),
    ("planner.satisfiable_substituted",
     "repro.planner.planner:Planner.satisfiable_substituted", False),
    ("wdpt.evaluate", "repro.wdpt.evaluation:evaluate", False),
    ("wdpt.evaluate_max", "repro.wdpt.evaluation:evaluate_max", False),
    ("wdpt.eval_tractable", "repro.wdpt.eval_tractable:eval_tractable", False),
    ("wdpt.partial_eval", "repro.wdpt.partial_eval:partial_eval", False),
    ("wdpt.max_eval", "repro.wdpt.max_eval:max_eval", False),
    ("wdpt.is_subsumed_by", "repro.wdpt.subsumption:is_subsumed_by", False),
    ("wdpt.wb_approximation", "repro.wdpt.approximation:wb_approximation", False),
    ("wdpt.is_in_m_wb", "repro.wdpt.approximation:is_in_m_wb", False),
    ("wdpt.phi_cq", "repro.wdpt.unions:phi_cq", False),
    ("cqalgs.evaluate_with_join_tree",
     "repro.cqalgs.yannakakis:evaluate_with_join_tree", False),
    ("cqalgs.satisfiable_with_join_tree",
     "repro.cqalgs.yannakakis:satisfiable_with_join_tree", False),
    ("cqalgs.is_contained_in", "repro.cqalgs.containment:is_contained_in", False),
    ("cqalgs.core", "repro.cqalgs.cores:core", False),
    ("relalg.scan", "repro.relalg.relation:scan", True),
    ("relalg.semijoin", "repro.relalg.relation:semijoin", False),
    ("relalg.hash_join", "repro.relalg.relation:hash_join", False),
    ("relalg.project", "repro.relalg.relation:project", False),
    ("relalg.to_mappings", "repro.relalg.relation:to_mappings", True),
    ("relalg.from_mappings", "repro.relalg.relation:from_mappings", True),
    ("storage.sql_yannakakis", "repro.storage.sqlite:SQLiteBackend.sql_yannakakis", True),
    ("hypergraphs.join_tree_of_atoms", "repro.hypergraphs.gyo:join_tree_of_atoms", False),
    ("hypergraphs.tree_decomposition",
     "repro.hypergraphs.treewidth:tree_decomposition", False),
    ("hypergraphs.treewidth_exact", "repro.hypergraphs.treewidth:treewidth_exact", False),
    ("hypergraphs.hypertreewidth_exact",
     "repro.hypergraphs.hypertree:hypertreewidth_exact", False),
)


def layer_of(span_name: str) -> str:
    """The layer (``repro`` module name) a span belongs to."""
    head = span_name.split(".", 1)[0]
    return _LAYER_ALIASES.get(head, head)


class Recorder:
    """Append-only in-memory span log plus result-size counters."""

    def __init__(self) -> None:
        self.spans: List[RawSpan] = []
        #: span name -> summed ``len(result)`` of its counted calls.
        self.rows: Dict[str, int] = {}

    def wrap(self, name: str, fn: Callable, count: bool = False) -> Callable:
        """``fn`` timed as a span called ``name`` (``count`` also sums
        ``len(result)`` into :attr:`rows`)."""
        spans = self.spans
        rows = self.rows
        clock = time.perf_counter
        if count:
            rows.setdefault(name, 0)

            def counted(*args: Any, **kwargs: Any) -> Any:
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    rows[name] += len(result)
                    return result
                finally:
                    spans.append((name, start, clock()))

            return counted

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, start, clock()))

        return timed

    def take(self) -> List[RawSpan]:
        """The spans recorded since the last call (and forget them)."""
        out = self.spans[:]
        del self.spans[:]
        return out


class Patches:
    """Reversible rebinding of ``repro`` functions and methods."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace(self, target: str, make: Callable[[Callable], Callable]) -> None:
        """Rebind ``"module:func"`` / ``"module:Class.method"`` to
        ``make(original)``.  A plain function is rebound in every loaded
        ``repro`` or ``bench`` module holding it (``from x import f``
        copies the binding); static and class methods keep their kind."""
        module_name, _, path = target.partition(":")
        __import__(module_name)
        module = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                inner = make(raw.__func__)
                self._set(cls, attr, classmethod(inner))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(make(raw.__func__)))
            else:
                self._set(cls, attr, make(raw))
            return
        original = getattr(module, path)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or name.split(".", 1)[0] not in ("repro", "bench"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


def instrument(recorder: Recorder, patches: Patches) -> None:
    """Wrap every :data:`TARGETS` boundary with ``recorder``."""
    for name, target, count in TARGETS:
        patches.replace(
            target, lambda fn, n=name, c=count: recorder.wrap(n, fn, c)
        )


def tracer_spans(tracer: Any) -> List[RawSpan]:
    """The finished spans of a repo ``Tracer`` as raw spans (and clear it)."""
    out = [
        (span.name, span.start, span.end)
        for span in tracer.walk()
        if span.end is not None
    ]
    tracer.clear()
    return out


def nest(spans: Iterable[RawSpan]) -> List[Tuple[str, float, float, int]]:
    """Sort spans outermost-first and attach parent indices.

    Returns ``(name, start, end, parent)`` rows, ``parent == -1`` for a
    root.  Containment decides nesting, which is exact for properly
    nested single-thread spans."""
    ordered = sorted(spans, key=lambda s: (s[1], -s[2]))
    out: List[Tuple[str, float, float, int]] = []
    stack: List[int] = []
    for name, start, end in ordered:
        while stack and out[stack[-1]][2] < end:
            stack.pop()
        out.append((name, start, end, stack[-1] if stack else -1))
        stack.append(len(out) - 1)
    return out


class Aggregate:
    """Per-span-name totals over many traced operations."""

    def __init__(self) -> None:
        self.count: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.ops = 0
        self.samples: List[Dict[str, Any]] = []

    def add(
        self, op_id: int, kind: str, spans: Iterable[RawSpan],
        keep_sample: bool = False, sample_cap: int = 1500,
    ) -> None:
        """Fold one operation's spans (its root span included)."""
        nested = nest(spans)
        children = [0.0] * len(nested)
        for name, start, end, parent in nested:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent) in enumerate(nested):
            duration = end - start
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + max(0.0, duration - children[i])
            )
        self.ops += 1
        if keep_sample and nested:
            origin = nested[0][1]
            self.samples.append({
                "op_id": op_id,
                "kind": kind,
                "spans_total": len(nested),
                "spans": [
                    {
                        "id": i, "parent": parent, "name": name,
                        "start_us": round((start - origin) * 1e6, 1),
                        "end_us": round((end - origin) * 1e6, 1),
                    }
                    for i, (name, start, end, parent) in enumerate(
                        nested[:sample_cap]
                    )
                ],
            })

    def layer_self_seconds(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, seconds in self.self_time.items():
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def total_ms_per_op(self, name: str) -> float:
        """Inclusive milliseconds in spans called ``name``, per traced op."""
        return self.total.get(name, 0.0) * 1000.0 / self.ops if self.ops else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "ops": self.ops,
            "spans": {
                name: {
                    "count": self.count[name],
                    "total_ms": round(self.total[name] * 1000.0, 4),
                    "self_ms": round(self.self_time[name] * 1000.0, 4),
                    "layer": layer_of(name),
                }
                for name in sorted(self.count)
            },
            "layer_self_ms": {
                layer: round(seconds * 1000.0, 4)
                for layer, seconds in sorted(self.layer_self_seconds().items())
            },
            "sample_ops": self.samples,
        }


def slow_down(fn: Callable, factor: float) -> Callable:
    """``fn`` made ``factor`` times slower by a busy-wait after each call
    (the sensitivity self-test's injected regression)."""
    clock = time.perf_counter

    def slowed(*args: Any, **kwargs: Any) -> Any:
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            until = end + (end - start) * (factor - 1.0)
            while clock() < until:
                pass

    return slowed
