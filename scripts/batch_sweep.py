"""Where a process batch of ``ask`` pairs starts to beat the plain loop.

Decides the ``decide`` benchmark's ``ask`` candidates (29 k facts,
``bench/workloads/decide.py``) once as ``[session.ask(q, h) ...]`` and
once as ``session.run_batch(pairs, jobs=2)`` on a warm pool, alternating
the two, and prints the median of each and their ratio per batch size::

    python scripts/batch_sweep.py [--runs 5] [--seed 1]

A ratio above 1 means the batch won (DESIGN.md, "Batches").
"""

import argparse
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench.harness import Context  # noqa: E402
from bench.workloads.decide import Decide  # noqa: E402
from repro.engine import Session  # noqa: E402

SIZES = (50, 100, 200, 400, 1000, 4000)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    decide = Decide(Context(ROOT, seed=args.seed, seconds=8, smoke=False))
    decide.prepare()
    asks = [(decide.query, h) for kind, h in decide.op_lists[0] if kind == "ask"]
    with Session(decide._database(), cache=False) as session:
        print("%5s facts, jobs=2, median of %d" % (session.size, args.runs))
        print("%6s  %9s  %12s  %14s" % ("pairs", "loop ms", "process ms", "loop/process"))
        for size in SIZES:
            pairs = asks[:size]
            loop = [session.ask(q, h) for q, h in pairs]
            assert session.run_batch(pairs, jobs=2) == loop  # warm + parity
            times = {"loop": [], "process": []}
            for _ in range(args.runs):
                for side in times:
                    start = time.perf_counter()
                    if side == "loop":
                        [session.ask(q, h) for q, h in pairs]
                    else:
                        session.run_batch(pairs, jobs=2)
                    times[side].append((time.perf_counter() - start) * 1e3)
            a, b = (statistics.median(times[side]) for side in ("loop", "process"))
            print("%6d  %9.1f  %12.1f  %14.2f" % (len(pairs), a, b, a / b))


if __name__ == "__main__":
    main()
