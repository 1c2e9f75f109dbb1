"""Span-aware sampling wall-clock profiler.

EXPLAIN ANALYZE (``repro.telemetry.obslog``) answers "which plan node was
slow?"; the chrome trace (``repro.telemetry.export``) answers "which span
was slow?".  Neither answers "which *Python frames* were hot?" — the
question that decides whether the time went into semijoin passes, homo-
morphism enumeration, or interpreter overhead around them.  This module
answers it with a stdlib stack sampler:

* :class:`SamplingProfiler` runs a daemon thread that wakes ``hz`` times
  per second, walks :func:`sys._current_frames`, and records one
  :class:`sample <Sample>` per application thread: the frame stack
  (root-first), plus — this is the span-aware part — the ``trace_id`` in
  flight on the *sampled* thread and the innermost open
  :class:`~repro.telemetry.tracer.Span` there, both read from that
  thread's query context in the ident → context table the profiler
  installs while running (:func:`~repro.telemetry.context.publish_threads`).  The
  span name maps onto a plan *phase* (plan / semijoin / join /
  enumerate; ``obslog.write`` for the query log's writes outside every
  span), so a flamegraph can fold by phase as well as by frame.

* Samples aggregate into the two interchange formats flamegraph tooling
  speaks: **folded stacks** (``root;child;leaf 42`` lines, flamegraph.pl
  and friends) via :func:`folded_stacks` / :func:`folded_text`, and
  **speedscope JSON** via :func:`to_speedscope` /
  :func:`write_speedscope`.  :func:`validate_speedscope` and
  :func:`validate_folded` check the emitted artifacts (used by
  ``scripts/validate_trace.py`` and the CI ``profile-smoke`` job).

* :class:`GCMonitor` adds runtime health gauges via ``gc.callbacks``:
  a ``gc.pause_ms`` histogram and per-generation collection counters in
  the profiler's :class:`~repro.telemetry.metrics.MetricsRegistry`,
  summarised by :func:`gc_summary` for ``Session.stats()``.

Overhead contract (gated in ``tests/test_profiler.py``): with no
profiler running the hooks are a module-global ``is None`` check per
context change and one :func:`current_profiler` read per
observed query — nothing on evaluation hot loops — and sampling at
100 Hz costs at most a few percent of wall time, because each tick does
O(threads x stack depth) work in C-backed frame walking, a few hundred
microseconds, 100 times a second.

Stdlib only, like the rest of :mod:`repro.telemetry`.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..collector import collector_paused
from .context import QueryContext, publish_threads
from .metrics import MetricsRegistry

__all__ = [
    "PROFILE_SCHEMA",
    "DEFAULT_HZ",
    "SPEEDSCOPE_SCHEMA",
    "Sample",
    "SamplingProfiler",
    "GCMonitor",
    "gc_summary",
    "span_phase",
    "folded_stacks",
    "folded_text",
    "sample_weights",
    "to_speedscope",
    "write_speedscope",
    "summarize_samples",
    "validate_speedscope",
    "validate_folded",
    "current_profiler",
    "profiling",
]

PROFILE_SCHEMA = 1
DEFAULT_HZ = 100
MAX_HZ = 1000
DEFAULT_MAX_SAMPLES = 200_000
DEFAULT_MAX_DEPTH = 128
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

# A sample is a plain tuple, so snapshots copy no object graphs:
#   (ts, thread_ident, frames, trace_id, span_name, phase)
# where ``frames`` is a root-first tuple of "file.py:function" labels.
Sample = Tuple[float, int, Tuple[str, ...], Optional[str], Optional[str], Optional[str]]


# ---------------------------------------------------------------------------
# Span-name -> plan-phase classification
# ---------------------------------------------------------------------------
# Ordered prefix table: first match wins, so the specific yannakakis
# semijoin spans classify before the bare "yannakakis" root span.  The
# phases mirror the well-designed-pattern-tree pipeline: parse/plan the
# tree, semijoin reductions, join evaluation of CQ nodes, and extension
# enumeration over the tree.
SPAN_PHASES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("plan", ("session.parse", "session.profile", "planner.profile",
              "planner.explain")),
    ("semijoin", ("yannakakis.scan", "yannakakis.semijoin")),
    ("join", ("yannakakis.join", "yannakakis", "planner.evaluate_cq",
              "planner.satisfiable", "cq.")),
    ("enumerate", ("wdpt.", "enumeration.", "session.query", "session.ask",
                   "session.is_")),
)

PHASE_OTHER = "other"

#: The phase of a sample taken outside every span while the query log
#: writes a record (``QueryLog.emit`` runs before and after the query's
#: spans), recognised from the stack the sampler walks anyway.
PHASE_OBSLOG = "obslog.write"
_OBSLOG_EMIT = "obslog.py:emit"

#: What a thread absent from the context table is running under.
_NO_QUERY = QueryContext()


def span_phase(span_name: Optional[str]) -> Optional[str]:
    """Map a span name onto its plan phase (``plan`` / ``semijoin`` /
    ``join`` / ``enumerate`` / ``other``); ``None`` for no span."""
    if span_name is None:
        return None
    for phase, prefixes in SPAN_PHASES:
        for prefix in prefixes:
            if span_name.startswith(prefix):
                return phase
    return PHASE_OTHER


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------
class SamplingProfiler:
    """Wall-clock stack sampler with span/trace attribution.

    ``start()`` spawns the daemon sampling thread, installs the
    cross-thread context table, registers this profiler as the
    module-level current one (so `Session` and obslog pick it up), and — when a registry is given — installs the
    :class:`GCMonitor`.  ``stop()`` undoes all of it.  Both are
    idempotent and thread-safe (the ``/debug/profile`` route hits them
    concurrently).
    """

    def __init__(
        self,
        hz: int = DEFAULT_HZ,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        max_depth: int = DEFAULT_MAX_DEPTH,
        registry: Optional[MetricsRegistry] = None,
        gc_stats: bool = True,
    ) -> None:
        self.hz = max(1, min(int(hz), MAX_HZ))
        self.max_samples = max(1, int(max_samples))
        self.max_depth = max(1, int(max_depth))
        self.registry = registry
        self.gc_stats = gc_stats
        self.dropped = 0
        self.ticks = 0
        self._cpu_seconds = 0.0
        self._samples: List[Sample] = []
        self._lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._contexts: Dict[int, QueryContext] = {}
        self._previous_contexts: Optional[Dict[int, QueryContext]] = None
        self._gc_monitor: Optional[GCMonitor] = None
        self._labels: Dict[Any, str] = {}

    # -- lifecycle ----------------------------------------------------------
    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start sampling (no-op if already running)."""
        global _current
        with self._state_lock:
            if self.running:
                return self
            self._stop = threading.Event()
            self._previous_contexts = publish_threads(self._contexts)
            if self.gc_stats and self.registry is not None:
                self._gc_monitor = GCMonitor(self.registry)
                self._gc_monitor.install()
            self._thread = threading.Thread(
                target=self._loop, name="repro-profiler", daemon=True,
            )
            self._thread.start()
            with _module_lock:
                _current = self
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling and uninstall every hook (no-op if stopped)."""
        global _current
        with self._state_lock:
            thread = self._thread
            if thread is None:
                return self
            self._stop.set()
            thread.join(timeout=2.0)
            self._thread = None
            publish_threads(self._previous_contexts)
            self._previous_contexts = None
            self._contexts.clear()
            if self._gc_monitor is not None:
                self._gc_monitor.uninstall()
                self._gc_monitor = None
            with _module_lock:
                if _current is self:
                    _current = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.stop()
        return False

    # -- the sampling loop --------------------------------------------------
    def _loop(self) -> None:
        interval = 1.0 / self.hz
        own = threading.get_ident()
        cpu_before = self._cpu_seconds  # earlier start()/stop() cycles
        next_tick = time.perf_counter() + interval
        while True:
            delay = next_tick - time.perf_counter()
            if delay > 0:
                if self._stop.wait(delay):
                    return
            elif self._stop.is_set():
                return
            now = time.perf_counter()
            next_tick += interval
            if next_tick < now:  # fell behind: skip missed ticks
                next_tick = now + interval
            try:
                self._sample_once(now, own)
            except Exception:  # pragma: no cover - never kill the app
                pass
            self._cpu_seconds = cpu_before + time.thread_time()

    def _sample_once(self, now: float, own_ident: int) -> None:
        self.ticks += 1
        # CPython before 3.11.8/3.12.2 (gh-106883) can deadlock the whole
        # process when a collection starts inside sys._current_frames():
        # it allocates while holding the runtime's thread-list lock.  The
        # walk takes the process's one collector pause, which answer builds
        # on other threads share, so no interleaving leaves it off.
        with collector_paused:
            frames = sys._current_frames()
        collected: List[Sample] = []
        for ident, frame in list(frames.items()):
            if ident == own_ident:
                continue
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                stack.append(self._label(frame.f_code))
                frame = frame.f_back
                depth += 1
            if not stack:
                continue
            stack.reverse()  # root-first, the folded/speedscope order
            context = self._contexts.get(ident, _NO_QUERY)
            span_name = context.span.name if context.span is not None else None
            phase = span_phase(span_name)
            if phase is None and _OBSLOG_EMIT in stack:
                phase = PHASE_OBSLOG
            collected.append(
                (now, ident, tuple(stack), context.trace_id, span_name, phase)
            )
        if collected:
            with self._lock:
                for sample in collected:
                    if len(self._samples) >= self.max_samples:
                        del self._samples[0]
                        self.dropped += 1
                    self._samples.append(sample)

    def _label(self, code: Any) -> str:
        label = self._labels.get(code)
        if label is None:
            label = "%s:%s" % (
                os.path.basename(code.co_filename), code.co_name,
            )
            self._labels[code] = label
        return label

    # -- sample access ------------------------------------------------------
    @property
    def samples(self) -> List[Sample]:
        """A snapshot of the recorded samples."""
        with self._lock:
            return list(self._samples)

    @property
    def sample_count(self) -> int:
        with self._lock:
            return len(self._samples)

    @property
    def cpu_seconds(self) -> float:
        """CPU time the sampling thread itself has used
        (``time.thread_time``, summed over start/stop cycles) — what
        profiling costs the process, whatever else the machine runs."""
        return self._cpu_seconds

    def clear(self) -> None:
        with self._lock:
            self._samples = []
            self.dropped = 0

    def samples_for_trace(self, trace_id: Optional[str]) -> List[Sample]:
        """Samples attributed to one trace id (a single query's profile)."""
        if trace_id is None:
            return []
        with self._lock:
            return [s for s in self._samples if s[3] == trace_id]

    # -- aggregation / export ----------------------------------------------
    def folded(self, by: str = "frames",
               trace_id: Optional[str] = None) -> Dict[str, int]:
        return folded_stacks(self.samples, by=by, trace_id=trace_id)

    def folded_text(self, by: str = "frames",
                    trace_id: Optional[str] = None) -> str:
        return folded_text(self.samples, by=by, trace_id=trace_id)

    def speedscope(self, name: str = "repro profile",
                   by: str = "frames") -> Dict[str, Any]:
        return to_speedscope(self.samples, self.hz, name=name, by=by)

    def write_speedscope(self, path: str, name: str = "repro profile",
                         by: str = "frames") -> None:
        write_speedscope(self.samples, self.hz, path, name=name, by=by)

    def summary(self, top: int = 10) -> Dict[str, Any]:
        summary = summarize_samples(self.samples, self.hz, top=top)
        summary["dropped"] = self.dropped
        summary["running"] = self.running
        summary["sampler_cpu_seconds"] = self.cpu_seconds
        return summary

    def trace_summary(self, trace_id: Optional[str],
                      top: int = 10) -> Dict[str, Any]:
        """Compact per-trace summary, sized for an obslog record."""
        summary = summarize_samples(
            self.samples_for_trace(trace_id), self.hz, top=top,
        )
        summary["trace_id"] = trace_id
        return summary

    def __repr__(self) -> str:
        return "SamplingProfiler(hz=%d, running=%s, samples=%d)" % (
            self.hz, self.running, self.sample_count,
        )


# ---------------------------------------------------------------------------
# Module-level current profiler
# ---------------------------------------------------------------------------
_module_lock = threading.Lock()
_current: Optional[SamplingProfiler] = None


def current_profiler() -> Optional[SamplingProfiler]:
    """The most recently started profiler, or ``None``.  This is the
    single module-global read the disabled path pays per observed query."""
    return _current


@contextmanager
def profiling(
    hz: int = DEFAULT_HZ,
    registry: Optional[MetricsRegistry] = None,
    **kwargs: Any,
) -> Iterator[SamplingProfiler]:
    """Run a profiler for the duration of the block::

        with profiling(hz=250) as prof:
            session.query(q)
        print(prof.folded_text(by="phase"))
    """
    profiler = SamplingProfiler(hz=hz, registry=registry, **kwargs)
    profiler.start()
    try:
        yield profiler
    finally:
        profiler.stop()


# ---------------------------------------------------------------------------
# Aggregation + export formats
# ---------------------------------------------------------------------------
def _stack_key(sample: Sample, by: str) -> Tuple[str, ...]:
    frames = sample[2]
    if by == "phase":
        phase = sample[5] if sample[5] is not None else "(no span)"
        return ("phase:%s" % phase,) + frames
    return frames


def folded_stacks(
    samples: Sequence[Sample],
    by: str = "frames",
    trace_id: Optional[str] = None,
) -> Dict[str, int]:
    """Aggregate samples into ``{"root;child;leaf": count}``.

    ``by="phase"`` prepends a synthetic ``phase:<name>`` root frame so
    the flamegraph's first split is the plan phase; ``trace_id`` filters
    to one query's samples.
    """
    if by not in ("frames", "phase"):
        raise ValueError("fold by 'frames' or 'phase', not %r" % (by,))
    counts: Dict[str, int] = {}
    for sample in samples:
        if trace_id is not None and sample[3] != trace_id:
            continue
        key = ";".join(_stack_key(sample, by))
        counts[key] = counts.get(key, 0) + 1
    return counts


def folded_text(
    samples: Sequence[Sample],
    by: str = "frames",
    trace_id: Optional[str] = None,
) -> str:
    """Folded stacks as flamegraph.pl input, hottest stacks first."""
    counts = folded_stacks(samples, by=by, trace_id=trace_id)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return "\n".join("%s %d" % (stack, n) for stack, n in ordered)


def sample_weights(samples: Sequence[Sample], hz: int) -> List[float]:
    """Seconds each sample stands for: the measured spacing since the
    previous tick, read from the samples' timestamps, and ``1/hz`` for the
    first tick.  The sampler wakes less often than ``hz`` asks when a busy
    query loop holds the GIL, so a fixed ``1/hz`` would shrink the time
    axis; the samples of one tick share its timestamp and its spacing."""
    weights: List[float] = []
    spacing = 1.0 / max(1, hz)
    previous: Optional[float] = None
    for sample in samples:
        ts = sample[0]
        if previous is not None and ts != previous:
            spacing = ts - previous
        previous = ts
        weights.append(spacing)
    return weights


def to_speedscope(
    samples: Sequence[Sample],
    hz: int,
    name: str = "repro profile",
    by: str = "frames",
    trace_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Samples as a speedscope ``sampled`` profile, each weighted by
    :func:`sample_weights`.  When every sample belongs to one
    trace, the payload carries a top-level ``trace_id`` so the export,
    the spans and the obslog record of a query correlate by id."""
    if by not in ("frames", "phase"):
        raise ValueError("fold by 'frames' or 'phase', not %r" % (by,))
    if trace_id is not None:
        samples = [s for s in samples if s[3] == trace_id]
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, str]] = []
    stacks: List[List[int]] = []
    for sample in samples:
        stack: List[int] = []
        for label in _stack_key(sample, by):
            idx = frame_index.get(label)
            if idx is None:
                idx = frame_index[label] = len(frames)
                frames.append({"name": label})
            stack.append(idx)
        stacks.append(stack)
    weights = sample_weights(samples, hz)
    trace_ids = sorted({s[3] for s in samples if s[3] is not None})
    payload: Dict[str, Any] = {
        "$schema": SPEEDSCOPE_SCHEMA,
        "exporter": "repro-profiler",
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": sum(weights),
                "samples": stacks,
                "weights": weights,
            }
        ],
    }
    if len(trace_ids) == 1:
        payload["trace_id"] = trace_ids[0]
    elif trace_ids:
        payload["trace_ids"] = trace_ids
    return payload


def write_speedscope(
    samples: Sequence[Sample],
    hz: int,
    path: str,
    name: str = "repro profile",
    by: str = "frames",
    trace_id: Optional[str] = None,
) -> None:
    import json

    payload = to_speedscope(samples, hz, name=name, by=by, trace_id=trace_id)
    with open(path, "w") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def summarize_samples(
    samples: Sequence[Sample], hz: int, top: int = 10,
) -> Dict[str, Any]:
    """A JSON-sized digest: counts per phase plus the hottest stacks.
    This is what embeds in ``query.slow`` obslog events — raw samples
    stay on the profiler."""
    phases: Dict[str, int] = {}
    traces = set()
    for sample in samples:
        phase = sample[5] if sample[5] is not None else "(no span)"
        phases[phase] = phases.get(phase, 0) + 1
        if sample[3] is not None:
            traces.add(sample[3])
    counts = folded_stacks(samples, by="frames")
    hottest = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    return {
        "schema": PROFILE_SCHEMA,
        "hz": hz,
        "samples": len(samples),
        "seconds": sum(sample_weights(samples, hz)),
        "phases": phases,
        "trace_ids": len(traces),
        "top": [[stack, n] for stack, n in hottest],
    }


# ---------------------------------------------------------------------------
# Artifact validators (scripts/validate_trace.py + CI profile-smoke)
# ---------------------------------------------------------------------------
def validate_speedscope(payload: Any) -> List[str]:
    """Structural check of a speedscope JSON payload; returns a list of
    problems (empty == valid).  Mirrors ``validate_chrome_trace``: an
    empty profile is an error, because a smoke job that silently
    captured nothing should fail."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["speedscope payload must be a JSON object, got %s"
                % type(payload).__name__]
    if payload.get("$schema") != SPEEDSCOPE_SCHEMA:
        errors.append("missing or wrong $schema (expected %r)"
                      % SPEEDSCOPE_SCHEMA)
    shared = payload.get("shared")
    frames = shared.get("frames") if isinstance(shared, dict) else None
    if not isinstance(frames, list):
        errors.append("shared.frames must be a list")
        frames = []
    for i, frame in enumerate(frames):
        if not isinstance(frame, dict) or not isinstance(frame.get("name"), str):
            errors.append("frame %d must be an object with a string 'name'" % i)
            break
    profiles = payload.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        errors.append("profiles must be a non-empty list")
        profiles = []
    for p, profile in enumerate(profiles):
        if not isinstance(profile, dict):
            errors.append("profile %d must be an object" % p)
            continue
        kind = profile.get("type")
        if kind not in ("sampled", "evented"):
            errors.append("profile %d has unknown type %r" % (p, kind))
            continue
        if kind != "sampled":
            continue
        stacks = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(stacks, list) or not isinstance(weights, list):
            errors.append("profile %d needs 'samples' and 'weights' lists" % p)
            continue
        if not stacks:
            errors.append("profile %d is empty: no samples were recorded" % p)
            continue
        if len(stacks) != len(weights):
            errors.append(
                "profile %d has %d samples but %d weights"
                % (p, len(stacks), len(weights)))
        for s, stack in enumerate(stacks):
            if not isinstance(stack, list) or not stack:
                errors.append(
                    "profile %d sample %d must be a non-empty index list"
                    % (p, s))
                break
            bad = [i for i in stack
                   if not isinstance(i, int) or i < 0 or i >= len(frames)]
            if bad:
                errors.append(
                    "profile %d sample %d has out-of-range frame index %r"
                    % (p, s, bad[0]))
                break
        if not all(isinstance(w, (int, float)) and w > 0 for w in weights):
            errors.append("profile %d has a weight that is not > 0" % p)
            continue
        start = profile.get("startValue", 0)
        end = profile.get("endValue", 0)
        if not isinstance(start, (int, float)) or not isinstance(end, (int, float)) \
                or end < start:
            errors.append("profile %d has endValue < startValue" % p)
        elif abs((end - start) - sum(weights)) > 1e-6:
            errors.append(
                "profile %d spans %r s but its weights sum to %r s"
                % (p, end - start, sum(weights)))
    return errors


def validate_folded(text: str) -> List[str]:
    """Structural check of folded-stack lines (``stack;frames count``)."""
    errors: List[str] = []
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["folded output is empty: no stacks were recorded"]
    for n, line in enumerate(lines, 1):
        stack, sep, count = line.rpartition(" ")
        if not sep or not stack:
            errors.append("line %d is not '<stack> <count>': %r" % (n, line))
            continue
        if not count.isdigit() or int(count) < 1:
            errors.append("line %d has a non-positive count: %r" % (n, line))
        if not all(part for part in stack.split(";")):
            errors.append("line %d has an empty frame in the stack" % n)
    return errors


# ---------------------------------------------------------------------------
# GC visibility (runtime health gauges)
# ---------------------------------------------------------------------------
class GCMonitor:
    """Record collector pauses and per-generation collection counts via
    ``gc.callbacks``: ``gc.pause_ms`` histogram plus ``gc.collections``
    / ``gc.collected`` / ``gc.uncollectable`` counters labelled by
    generation.  Installed with the profiler (a long-lived daemon wants
    to see GC pressure next to its flamegraphs) and summarised by
    :func:`gc_summary` in ``Session.stats()``."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.installed = False
        self._t0: Optional[float] = None

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        # Runs inside the collector: keep it allocation-light and never
        # raise (an exception here would surface in unrelated code).
        try:
            if phase == "start":
                self._t0 = time.perf_counter()
                return
            t0 = self._t0
            self._t0 = None
            generation = str(info.get("generation", "?"))
            registry = self.registry
            if t0 is not None:
                registry.histogram("gc.pause_ms").observe(
                    (time.perf_counter() - t0) * 1000.0)
            registry.counter(
                "gc.collections", {"generation": generation}).inc()
            registry.counter(
                "gc.collected", {"generation": generation}).inc(
                int(info.get("collected", 0)))
            registry.counter(
                "gc.uncollectable", {"generation": generation}).inc(
                int(info.get("uncollectable", 0)))
        except Exception:  # pragma: no cover - health hooks must not throw
            pass

    def install(self) -> "GCMonitor":
        if not self.installed:
            gc.callbacks.append(self._callback)
            self.installed = True
        return self

    def uninstall(self) -> None:
        if self.installed:
            try:
                gc.callbacks.remove(self._callback)
            except ValueError:  # pragma: no cover
                pass
            self.installed = False

    def __enter__(self) -> "GCMonitor":
        return self.install()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.uninstall()
        return False


def gc_summary(registry: Optional[MetricsRegistry]) -> Dict[str, Any]:
    """GC health digest from a registry's instruments (for
    ``Session.stats()``).  ``{"enabled": False}`` when no GC monitor has
    written to this registry."""
    if registry is None:
        return {"enabled": False}
    hist = registry._histograms.get(("gc.pause_ms", ()))
    collections = registry.labeled_values("gc.collections", "generation")
    if hist is None and not collections:
        return {"enabled": False}
    return {
        "enabled": True,
        "collections": collections,
        "collected": registry.labeled_values("gc.collected", "generation"),
        "uncollectable": registry.labeled_values(
            "gc.uncollectable", "generation"),
        "pause_ms": hist.snapshot() if hist is not None else None,
    }
