#!/usr/bin/env python3
"""Run a matrix of benchmark runs the way the driver does — one process per
run, back to back — and summarise it: median, quartiles and the
interquartile spread of every end-to-end metric per workload, whether the
exact-count facts of same-seed runs are identical, and one traced run per
seed for the per-layer numbers.

    python3 bench/baseline.py --seeds 1 2 --runs 3 --out bench/results/baseline.json
    python3 bench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --out bench/out/spread.json

The first form produced the committed baseline; the second is the ten-seed
spread check each bound was sized against (spread < bound / 3).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, REPO_ROOT)

from bench import catalogue  # noqa: E402  (needs the path above)


def run_once(workload: str, seed: int, trace: int, seconds: float) -> Dict[str, Any]:
    """One ``run.py`` process; returns its result file's content."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(
            "%s seed %d trace %d exited %d:\n%s"
            % (workload, seed, trace, proc.returncode, proc.stderr[-2000:])
        )
    json.loads(proc.stdout.strip().splitlines()[-1])  # the driver's line parses
    path = os.path.join(
        BENCH_DIR, "out", "result_%s_seed%d_trace%d.json" % (workload, seed, trace)
    )
    with open(path) as handle:
        return json.load(handle)


def quartiles(values: List[float]) -> Dict[str, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per seed")
    parser.add_argument("--workloads", nargs="+", default=list(catalogue.WORKLOADS))
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bounds = {m.name: m.bound for m in catalogue.END_TO_END}
    summary: Dict[str, Any] = {"seeds": args.seeds, "runs_per_seed": args.runs,
                               "seconds": args.seconds, "workloads": {}}
    started = time.time()
    for workload in args.workloads:
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        raw: Dict[str, List[float]] = {
            name: [] for name in ("throughput_ops_s", "latency_p50_ms", "latency_p95_ms")
        }
        exact_repeat = True
        per_seed: Dict[str, Any] = {}
        environment = None
        for seed in args.seeds:
            facts = []
            for _ in range(args.runs):
                record = run_once(workload, seed, 0, args.seconds)
                environment = record["environment"]
                for name in bounds:
                    values[name].append(record["metrics"][name]["value"])
                for name in raw:
                    raw[name].append(record["detail"]["raw"][name])
                facts.append((record["attempted"], record["detail"]["op_counts"],
                              record["detail"]["facts"]))
            exact_repeat = exact_repeat and all(f == facts[0] for f in facts)
            per_seed[str(seed)] = {
                "attempted": facts[0][0], "op_counts": facts[0][1], "facts": facts[0][2],
            }
            if not args.no_trace:
                traced = run_once(workload, seed, 1, args.seconds)
                per_seed[str(seed)]["per_layer"] = {
                    name: m["value"] for name, m in traced["metrics"].items() if m["value"]
                }
        end_to_end = {}
        for name, series in values.items():
            stats = quartiles(series)
            stats["values"] = series
            stats["bound"] = bounds[name]
            stats["spread_within_third_of_bound"] = stats["spread"] < bounds[name] / 3
            if name in raw:  # before speed normalisation, for comparison
                stats["raw_median"] = statistics.median(raw[name])
                stats["raw_spread"] = quartiles(raw[name])["spread"]
            end_to_end[name] = stats
        summary["workloads"][workload] = {
            "end_to_end": end_to_end,
            "exact_counts_repeat": exact_repeat,
            "per_seed": per_seed,
            "environment": environment,
        }
        print("%-10s %s" % (workload, "  ".join(
            "%s %.4g (%.1f%%, raw %.1f%%)" % (
                n, s["median"], s["spread"] * 100, s.get("raw_spread", 0.0) * 100)
            for n, s in end_to_end.items())), flush=True)
    summary["elapsed_s"] = time.time() - started
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
