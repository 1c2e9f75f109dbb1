"""Timing harness for the paper-shaped benchmarks.

pytest-benchmark measures individual operations; the *tables* of the paper
need parameter sweeps with growth-rate summaries ("does the tractable
algorithm scale polynomially while the general one blows up?").  This
module provides those sweeps:

* :func:`time_callable` — robust best-of-N wall-clock timing;
* :class:`Series` — a named sequence of (parameter, seconds) points with a
  log–log slope estimate (≈ polynomial degree) and a doubling-ratio
  estimate (exponential growth shows up as a ratio ≫ 1 under +1 steps).
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span names rolled up into the coarse pipeline stages benchmarks report:
#: structural analysis vs. CQ-engine time vs. the Yannakakis semijoin
#: passes within it (semijoin time is a subset of engine time).
DEFAULT_STAGES: Sequence[Tuple[str, Tuple[str, ...]]] = (
    ("analysis", ("session.parse", "session.profile", "planner.profile",
                  "planner.explain")),
    ("engine", ("planner.evaluate_cq", "planner.satisfiable")),
    ("semijoin", ("yannakakis.scan", "yannakakis.semijoin_up",
                  "yannakakis.semijoin_down")),
)


def stage_breakdown(
    fn: Callable[[], object],
    stages: Sequence[Tuple[str, Tuple[str, ...]]] = DEFAULT_STAGES,
) -> Dict[str, float]:
    """Run ``fn()`` once under a fresh tracer and roll the recorded spans
    up into ``{stage: seconds}`` — the per-stage columns of the benchmark
    tables.  The instrumented code paths see the tracer through
    :func:`repro.telemetry.tracer.current_tracer`, so this works for any
    workload routed through the Session/planner/engines."""
    from ..telemetry.tracer import Tracer, tracing

    tracer = Tracer()
    with tracing(tracer):
        fn()
    return {
        stage: sum(tracer.total_seconds(name) for name in names)
        for stage, names in stages
    }


def time_callable(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``fn()``."""
    best = math.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best


class Series:
    """A named series of (parameter, seconds) measurements."""

    def __init__(self, name: str):
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def add(self, parameter: float, seconds: float) -> None:
        self.points.append((float(parameter), float(seconds)))

    def parameters(self) -> List[float]:
        return [p for p, _ in self.points]

    def seconds(self) -> List[float]:
        return [s for _, s in self.points]

    def loglog_slope(self) -> Optional[float]:
        """Least-squares slope of log(seconds) against log(parameter).

        For a polynomial-time algorithm this approximates the degree; needs
        at least two distinct positive parameters and positive timings.
        """
        pts = [(p, s) for p, s in self.points if p > 0 and s > 0]
        if len(pts) < 2 or len({p for p, _ in pts}) < 2:
            return None
        xs = [math.log(p) for p, _ in pts]
        ys = [math.log(s) for _, s in pts]
        n = len(xs)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        var_x = sum((x - mean_x) ** 2 for x in xs)
        if var_x == 0:
            return None
        cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
        return cov / var_x

    def growth_ratio(self) -> Optional[float]:
        """Geometric mean of consecutive timing ratios (per parameter
        step).  Exponential behaviour yields a ratio comfortably above 1
        that does not shrink as the parameter grows."""
        ratios = [
            b / a
            for (_, a), (_, b) in zip(self.points, self.points[1:])
            if a > 0 and b > 0
        ]
        if not ratios:
            return None
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    def __repr__(self) -> str:
        return "Series(%r, %d points)" % (self.name, len(self.points))
