#!/usr/bin/env python3
"""Run one benchmark workload (or, with ``--workload all``, every one).

    python3 bench/run.py --workload eval_opt --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload eval_opt --seed 1 --seconds 8 --trace 1
    python3 bench/run.py --workload all --smoke

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when
any operation failed or returned a wrong answer.  See ``README.md``.
"""

from __future__ import annotations

import sys

# No bytecode files: nothing is written under src/, and every process the
# benchmark starts pays the same import cost whatever ran before it.
sys.dont_write_bytecode = True

import argparse
import json
import os
import signal

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def _bootstrap() -> None:
    """Make ``repro`` (from this checkout's ``src/``) and ``bench``
    importable; without the program under test there is nothing to run."""
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit("bench: no src/repro next to bench/ — nothing to benchmark")
    for name in ("REPRO_BACKEND", "REPRO_KERNELS", "REPRO_SHARDS"):
        os.environ.pop(name, None)  # defaults only: the run must not depend on the caller's shell
    sys.path[:0] = [REPO_ROOT, src]


def _sigterm(signum: int, frame: object) -> None:
    # Unwind through the finally blocks, so a serve child never outlives us.
    raise KeyboardInterrupt


def main(argv=None) -> int:
    _bootstrap()
    from bench import catalogue, harness
    from bench.workloads import REGISTRY

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(REGISTRY) + ["all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="feeds the input generators only")
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS,
                        help="nominal length of the measured section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced replay printing the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="about 1/20 of the data and operations")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _sigterm)

    ctx = harness.Context(REPO_ROOT, args.seed, args.seconds, args.smoke)
    env = harness.environment(ctx)
    names = sorted(REGISTRY) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        workload = REGISTRY[name](ctx)
        run = harness.run_traced if args.trace else harness.run_untraced
        summary = harness.report(workload, bool(args.trace), run(workload), env)
        if len(names) > 1:
            print(name, end=" ")
        print(json.dumps(summary))
        if not summary["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
