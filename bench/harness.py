"""Run one workload: repeated set-up, warm-up, the closed-loop measured
section, verification, and (``--trace 1``) the traced replay.

Every measured run is fixed-work: a workload's seeded op list has
``rate x seconds`` operations, where ``rate`` is a constant of the workload
(about 0.8 x its throughput at nominal speed, so the list takes about
``--seconds`` on the reference box at its usual speed) — the counts
therefore repeat exactly from run to run, which a deadline-bounded loop
cannot give.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.tracer import tracing

from . import catalogue, spans

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Full span trees kept per op kind in ``trace_<workload>.json``.
SAMPLE_OPS_PER_KIND = 2

#: The box's speed is sampled with a fixed pure-Python loop this often
#: during a measured section, and once around every set-up.
CALIBRATE_EVERY_S = 0.05
CALIBRATION_ITEMS = 1200
#: Seconds the calibration loop takes on the reference box in its fast
#: state.  Times are reported as ``raw x NOMINAL / local calibration``.
CALIBRATION_NOMINAL_S = 0.00065

Op = Tuple[Any, ...]


class Context:
    """What a workload needs to know about this invocation."""

    def __init__(self, repo_root: str, seed: int, seconds: float, smoke: bool):
        self.repo_root = repo_root
        self.seed = seed
        self.seconds = seconds
        #: Data-size divisor and op-count factor of ``--smoke`` (1/20 size).
        self.smoke = smoke
        self.out_dir = os.path.join(repo_root, "bench", "out")
        os.makedirs(self.out_dir, exist_ok=True)

    def n_ops(self, rate: float, minimum: int = 30) -> int:
        """Length of a fixed-work op list at ``rate`` ops/s nominal."""
        scale = 0.05 if self.smoke else 1.0
        return max(minimum, int(round(rate * self.seconds * scale)))

    def scaled(self, full: int, smoke: int) -> int:
        return smoke if self.smoke else full


class Workload:
    """One benchmark workload; subclasses live in ``bench/workloads``."""

    name = ""
    #: Closed-loop client threads (at most nproc = 2 on the reference box).
    clients = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        #: One seeded op list per client; ``op[0]`` is the op kind.
        self.op_lists: List[List[Op]] = []
        #: Facts recorded for the result file (digests, sizes, counts).
        self.facts: Dict[str, Any] = {}
        #: Seconds the backend load took inside the last set-up.
        self.load_s = 0.0
        #: First output seen per op kind (:meth:`same_as_first`).
        self.first: Dict[str, Any] = {}

    # -- lifecycle ---------------------------------------------------------
    def prepare(self) -> None:
        """Untimed, seeded bookkeeping: build the op lists."""
        raise NotImplementedError

    def setup(self) -> None:
        """Timed set-up: data generation, backend load, server start,
        warm-up.  Must be repeatable after :meth:`teardown`."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release everything :meth:`setup` opened (idempotent)."""

    # -- operations --------------------------------------------------------
    def run_op(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, output: Any) -> bool:
        """Cheap inline correctness check of one output."""
        raise NotImplementedError

    def same_as_first(self, op: Op, output: Any) -> bool:
        """A :meth:`check` for workloads whose ops of one kind all return
        the same thing: every output must equal the first of its kind,
        which :meth:`verify` then judges once against the oracle."""
        return output == self.first.setdefault(op[0], output)

    def verify(self) -> List[str]:
        """Post-run oracle checks; returns one message per failure."""
        return []

    def rss_mb(self) -> float:
        """Peak RSS of the process under test."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- traced replay -----------------------------------------------------
    def begin_replay(self) -> None:
        """State the in-process replay needs beyond :meth:`setup`."""

    def replay_op(self, op: Op) -> Any:
        """The in-process form of ``op`` the span ledger is built from."""
        return self.run_op(op)

    def replay_check(self, op: Op, output: Any) -> bool:
        return self.check(op, output)

    def probes(self, replay: "Replay") -> Dict[str, float]:
        """Workload-specific per-layer metrics (traced run only)."""
        return {}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 1)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def median(values: Sequence[float]) -> float:
    return percentile(sorted(values), 0.5)


def digest(obj: Any) -> str:
    """Order-independent digest of an answer set (or of any repr-able)."""
    if isinstance(obj, (set, frozenset)):
        payload = "\n".join(sorted(repr(x) for x in obj))
    else:
        payload = repr(obj)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Speed normalisation
# ---------------------------------------------------------------------------
def calibrate() -> float:
    """Seconds one fixed unit of interpreter work takes right now.

    The sandbox's cores change speed for seconds at a time: the same loop
    costs 7.4 ms or 12 ms of *CPU* time depending on when it runs, which is
    more than any bound.  Timing a fixed loop next to the operations and
    reporting ``time x nominal / local`` cancels most of it.  The loop does
    what the program does — tuples into a dict, membership tests, a dict
    per row — because the slow state costs allocation-heavy code more than
    arithmetic: over 50 s of one join query, 2.5-second medians spread
    64 % raw, 14 % normalised by an arithmetic loop, 4 % by this one.
    """
    start = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_ITEMS):
        table[(i, i + 1)] = (i,)
    linked = set()
    for key in table:
        if (key[1], key[1] + 1) in table:
            linked.add(key)
    rows = [dict(zip(("a", "b"), key)) for key in linked]
    end = time.perf_counter()
    if len(rows) != CALIBRATION_ITEMS - 1:
        raise RuntimeError("calibration loop is broken")
    return end - start


def speed_factors(samples: Sequence[float]) -> List[float]:
    """``nominal / local`` per calibration sample, each smoothed over its
    neighbours (median of three) so one preempted sample does not count."""
    out = []
    for k in range(len(samples)):
        window = sorted(samples[max(0, k - 1): k + 2])
        out.append(CALIBRATION_NOMINAL_S / window[len(window) // 2])
    return out


def timed_normalised(fn: Callable[[], Any]) -> Tuple[float, float]:
    """``(raw seconds, normalised seconds)`` of one call, the speed sampled
    before and after it."""
    before = calibrate()
    start = time.perf_counter()
    fn()
    raw = time.perf_counter() - start
    local = (before + calibrate()) / 2.0
    return raw, raw * CALIBRATION_NOMINAL_S / local


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------
class LoopResult:
    def __init__(self) -> None:
        #: Raw per-op seconds, and the same normalised to nominal speed.
        self.raw: List[float] = []
        self.latencies: List[float] = []
        self.failed = 0
        self.messages: List[str] = []
        self.wall = 0.0
        self.kinds: Dict[str, int] = {}

    @property
    def attempted(self) -> int:
        return len(self.latencies)


def drive(
    op_lists: Sequence[Sequence[Op]],
    run_op: Callable[[Op], Any],
    check: Callable[[Op, Any], bool],
    after_op: Optional[Callable[[int, Op, float, float], None]] = None,
) -> LoopResult:
    """Closed loop: each client issues its next op when the previous one
    returned.  One client runs inline; more run as threads."""
    per_client: List[Optional[Tuple[List[float], List[float], int, List[str]]]]
    per_client = [None] * len(op_lists)

    def client(k: int) -> None:
        latencies: List[float] = []
        failed = 0
        messages: List[str] = []
        clock = time.perf_counter
        # samples[j] was taken after marks[j] ops had completed.
        samples = [calibrate()]
        marks = [0]
        sampled_at = clock()
        for i, op in enumerate(op_lists[k]):
            start = clock()
            try:
                output = run_op(op)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                output = None
                error = "%s: %s" % (type(exc).__name__, exc)
            end = clock()
            latencies.append(end - start)
            if error is None and not check(op, output):
                error = "wrong output"
            if error is not None:
                failed += 1
                if len(messages) < 5:
                    messages.append("%s op %d of client %d: %s" % (op[0], i, k, error))
            if after_op is not None:
                after_op(i, op, start, end)
            if end - sampled_at >= CALIBRATE_EVERY_S:
                samples.append(calibrate())
                marks.append(i + 1)
                sampled_at = clock()
        samples.append(calibrate())
        marks.append(len(latencies))
        factors = speed_factors(samples)
        normalised: List[float] = []
        for j in range(1, len(marks)):
            factor = (factors[j - 1] + factors[j]) / 2.0
            normalised.extend(x * factor for x in latencies[marks[j - 1]: marks[j]])
        per_client[k] = (latencies, normalised, failed, messages)

    result = LoopResult()
    begin = time.perf_counter()
    if len(op_lists) == 1:
        client(0)
    else:
        threads = [
            threading.Thread(
                target=client, args=(k,), name="bench-client-%d" % k, daemon=True
            )
            for k in range(len(op_lists))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    result.wall = time.perf_counter() - begin
    for k, entry in enumerate(per_client):
        if entry is None:
            raise RuntimeError("client %d died without a result" % k)
        raw, normalised, failed, messages = entry
        result.raw.extend(raw)
        result.latencies.extend(normalised)
        result.failed += failed
        result.messages.extend(messages)
    for ops in op_lists:
        for op in ops:
            result.kinds[op[0]] = result.kinds.get(op[0], 0) + 1
    return result


def drive_frozen(*args: Any) -> LoopResult:
    """:func:`drive` with the data loaded so far moved out of the
    collector's sight, so a generation-2 pass does not rescan it at a
    random op (steadier p95; the collector stays on)."""
    gc.collect()
    gc.freeze()
    try:
        return drive(*args)
    finally:
        gc.unfreeze()


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------
def run_untraced(w: Workload) -> Dict[str, Any]:
    w.prepare()
    setups: List[Tuple[float, float]] = []
    live = False
    try:
        for i in range(SETUP_REPEATS):
            live = True
            setups.append(timed_normalised(w.setup))
            if i < SETUP_REPEATS - 1:
                w.teardown()
                live = False
        loop = drive_frozen(w.op_lists, w.run_op, w.check)
        rss = w.rss_mb()
        problems = w.verify()
    finally:
        if live:
            w.teardown()
    failed = loop.failed + len(problems)
    ordered = sorted(loop.latencies)
    raw = sorted(loop.raw)
    correct = loop.attempted - min(failed, loop.attempted)
    # Closed loop: every client always has one op in flight, so the section
    # lasts sum(latencies) / clients — the harness's own checks and speed
    # samples between ops are not the program's time.
    busy = sum(ordered) / len(w.op_lists)
    metrics = {
        "throughput_ops_s": correct / busy,
        "latency_p50_ms": percentile(ordered, 0.50) * 1000.0,
        "latency_p95_ms": percentile(ordered, 0.95) * 1000.0,
        "setup_s": median([normalised for _, normalised in setups]),
        "peak_rss_mb": rss,
    }
    return {
        "attempted": loop.attempted,
        "failed": failed,
        "messages": (loop.messages + problems)[:10],
        "metrics": metrics,
        "detail": {
            "error_rate": failed / loop.attempted,
            "speed_factor": sum(ordered) / sum(raw),
            "raw": {
                "wall_s": loop.wall,
                "throughput_ops_s": correct / loop.wall,
                "latency_p50_ms": percentile(raw, 0.50) * 1000.0,
                "latency_p95_ms": percentile(raw, 0.95) * 1000.0,
                "setups_s": [seconds for seconds, _ in setups],
            },
            "op_counts": loop.kinds,
            "samples_beyond_p95": len(ordered) - int(-(-0.95 * len(ordered) // 1)),
            "latency_p99_ms": percentile(ordered, 0.99) * 1000.0,
            "facts": w.facts,
        },
    }


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics
# ---------------------------------------------------------------------------
class Replay:
    """What the traced replay of a workload's first third produced."""

    def __init__(self) -> None:
        self.aggregate = spans.Aggregate()
        self.rows: Dict[str, int] = {}
        self.ops: List[Op] = []
        self.untraced = LoopResult()
        self.traced = LoopResult()

    def mean_us(self, *names: str) -> float:
        """Mean inclusive microseconds over all spans with these names."""
        agg = self.aggregate
        n = sum(agg.count.get(name, 0) for name in names)
        total = sum(agg.total.get(name, 0.0) for name in names)
        return total * 1e6 / n if n else 0.0

    def us_per_row(self, name: str) -> float:
        rows = self.rows.get(name, 0)
        return self.aggregate.total.get(name, 0.0) * 1e6 / rows if rows else 0.0


def run_traced(w: Workload) -> Dict[str, Any]:
    w.prepare()
    replay = Replay()
    for ops in w.op_lists:
        replay.ops.extend(ops[: max(1, len(ops) // 3)])
    w.setup()
    try:
        # Pass 1, untraced, for the cost of looking.
        w.begin_replay()
        replay.untraced = drive_frozen([replay.ops], w.replay_op, w.replay_check)
        # Same state again for pass 2: caches and written data start over.
        w.teardown()
        w.setup()
        w.begin_replay()
        recorder = spans.Recorder()
        sampled: Dict[str, int] = {}
        with spans.Patches() as patches, tracing() as tracer:
            spans.instrument(recorder, patches)

            def fold(i: int, op: Op, start: float, end: float) -> None:
                kind = op[0]
                keep = sampled.get(kind, 0) < SAMPLE_OPS_PER_KIND
                if keep:
                    sampled[kind] = sampled.get(kind, 0) + 1
                raw = recorder.take() + spans.tracer_spans(tracer)
                raw.append(("op." + kind, start, end))
                replay.aggregate.add(i, kind, raw, keep_sample=keep)

            replay.traced = drive_frozen([replay.ops], w.replay_op, w.replay_check, fold)
        replay.rows = dict(recorder.rows)
        measured = w.probes(replay)
    finally:
        w.teardown()
    metrics = _ledger(replay)
    metrics.update(measured)
    _write_trace(w, replay, metrics)
    failed = replay.untraced.failed + replay.traced.failed
    return {
        "attempted": replay.untraced.attempted + replay.traced.attempted,
        "failed": failed,
        "messages": (replay.untraced.messages + replay.traced.messages)[:10],
        "metrics": metrics,
        "detail": {"op_counts": replay.traced.kinds, "facts": w.facts},
    }


def _ledger(replay: Replay) -> Dict[str, float]:
    """The metrics every workload derives the same way from its spans."""
    agg = replay.aggregate
    n = max(1, agg.ops)
    layer_self = agg.layer_self_seconds()
    op_total = sum(v for k, v in agg.total.items() if k.startswith("op."))
    unattributed = layer_self.get("op", 0.0)
    untraced = sum(replay.untraced.latencies)
    traced = sum(replay.traced.latencies)
    ordered = sorted(replay.untraced.latencies)
    out = {
        "trace.op_ms": op_total * 1000.0 / n,
        "trace.attributed_share": 1.0 - unattributed / op_total if op_total else 0.0,
        # ops/s falls by (1/u - 1/t) / (1/u) = 1 - u/t.
        "telemetry.trace_overhead_pct": (1.0 - untraced / traced) * 100.0 if traced else 0.0,
        "client.latency_p99_ms": percentile(ordered, 0.99) * 1000.0,
        "client.ops": float(len(replay.ops)),
    }
    for layer in catalogue.LEDGER_LAYERS:
        out["layer.%s.self_ms_per_op" % layer] = layer_self.get(layer, 0.0) * 1000.0 / n
    return out


def _write_trace(w: Workload, replay: Replay, metrics: Dict[str, float]) -> None:
    path = os.path.join(w.ctx.out_dir, "trace_%s.json" % w.name)
    payload = {
        "workload": w.name,
        "seed": w.ctx.seed,
        "note": "self time = span duration minus the part covered by child spans; "
                "sample_ops hold the first %d ops of each kind in full "
                "(parent = index into the same list, -1 for the op root)"
                % SAMPLE_OPS_PER_KIND,
        "metrics": metrics,
    }
    payload.update(replay.aggregate.to_json())
    with open(path, "w") as handle:
        json.dump(payload, handle)


# ---------------------------------------------------------------------------
# Environment capture and the result file
# ---------------------------------------------------------------------------
def environment(ctx: Context) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ctx.repo_root, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "smoke": ctx.smoke,
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg_1min_at_start": load1,
        # Another busy process per core: the timings of this run are suspect.
        "noisy": load1 > nproc,
    }


def report(
    w: Workload, trace: bool, outcome: Dict[str, Any], env: Dict[str, Any]
) -> Dict[str, Any]:
    """Write the result file and build the driver's one-line summary."""
    declared = catalogue.PER_LAYER if trace else catalogue.END_TO_END
    units = {m.name: m.unit for m in declared}
    measured = outcome["metrics"]
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise RuntimeError("metrics missing from the catalogue: %s" % ", ".join(unknown))
    if trace:
        owners = {m.name: m.workloads for m in catalogue.PER_LAYER}
        stray = sorted(n for n in measured if w.name not in owners[n])
        absent = sorted(
            n for n, ws in owners.items() if w.name in ws and n not in measured
        )
        if stray or absent:
            raise RuntimeError(
                "catalogue and %s disagree: undeclared %s, unmeasured %s"
                % (w.name, stray, absent)
            )
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    summary = {
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }
    record = dict(summary)
    record.update({
        "workload": w.name, "trace": trace, "environment": env,
        "messages": outcome["messages"], "detail": outcome["detail"],
    })
    path = os.path.join(
        w.ctx.out_dir,
        "result_%s_seed%d_trace%d.json" % (w.name, w.ctx.seed, int(trace)),
    )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for message in outcome["messages"]:
        print("FAILED: %s" % message, file=sys.stderr)
    return summary
