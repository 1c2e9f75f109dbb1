#!/usr/bin/env python
"""What the executor hop costs a cache miss, in process.

Usage::

    python scripts/hop_cost.py            # 400 bands, 30 blocks of 200 ops
    python scripts/hop_cost.py --smoke    # 40 bands, 4 blocks of 20 ops

It replays the ``serve_cold`` op mix — every query text unique (a
distinct pair of band constants), one in five asking for maximal
answers — on a session built as ``repro serve`` builds a tenant's (gold
tier, resources tracked), from two client coroutines on one asyncio
loop, as the benchmark's two clients drive the server.  Each op is what
the server's executor job does for a miss: evaluate, then serialise the
answers once.  Blocks alternate between two ways of running that job:

* ``inline``: called in the coroutine, on the loop's thread;
* ``executor``: awaited through ``loop.run_in_executor`` on a thread
  pool sized as the server's, as ``ServiceServer`` runs every miss.

It prints, per way, the wall µs and the process CPU µs (every thread)
of an op: the median block, with the fastest and slowest.  A report,
not a gate: the inline way blocks the loop for a whole evaluation,
which the server does not allow itself.
"""

import argparse
import asyncio
import os
import random
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor

# Runnable straight from a checkout, before any `pip install -e .`.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, os.path.abspath(_SRC))

from repro.engine import Session  # noqa: E402
from repro.service.admission import DEFAULT_GLOBAL_LIMIT  # noqa: E402
from repro.service.protocol import AnswerEncoder  # noqa: E402
from repro.table import format_table  # noqa: E402
from repro.workloads.datasets import music_catalog  # noqa: E402

SEED = 1
CLIENTS = 2
WAYS = ("inline", "executor")


def band_query(band: int, formed_band: int) -> str:
    """The benchmark's selective query over two band constants."""
    return (
        'SELECT ?x ?z ?z2 WHERE { ?x recorded_by band_%d . ?x published "after_2010" '
        "OPTIONAL { ?x NME_rating ?z } OPTIONAL { band_%d formed_in ?z2 } }"
        % (band, formed_band)
    )


def ops(bands: int, n: int):
    """``n`` ``(maximal, text)`` ops, no text twice."""
    pairs = random.Random(SEED).sample(range(bands * bands), n)
    return [(i % 5 == 4, band_query(*divmod(pair, bands))) for i, pair in enumerate(pairs)]


def miss(session: Session, encoder: AnswerEncoder, maximal: bool, text: str) -> bytes:
    """The server's executor job for one miss."""
    result = session.query_maximal(text) if maximal else session.query(text)
    return encoder.fragment(result.answers)


async def block(way, block_ops, session, encoder, executor):
    """Run one block from :data:`CLIENTS` coroutines; (wall, CPU) seconds."""
    loop = asyncio.get_running_loop()

    async def client(mine):
        for maximal, text in mine:
            if way == "inline":
                miss(session, encoder, maximal, text)
            else:
                await loop.run_in_executor(executor, miss, session, encoder, maximal, text)

    wall, cpu = time.perf_counter(), time.process_time()
    await asyncio.gather(*(client(block_ops[i::CLIENTS]) for i in range(CLIENTS)))
    return time.perf_counter() - wall, time.process_time() - cpu


async def run(bands: int, blocks: int, size: int):
    session = Session(
        music_catalog(bands, 5, seed=SEED), cache_size=256, track_resources=True,
        tenant="public",
    )
    encoder = AnswerEncoder()
    stream = ops(bands, (blocks + 1) * size)
    times = {way: [] for way in WAYS}
    with ThreadPoolExecutor(max_workers=DEFAULT_GLOBAL_LIMIT) as executor:
        # Warm-up: lazy imports and first-call paths, on texts never reused.
        await block("inline", stream[:size], session, encoder, executor)
        for i in range(blocks):
            way = WAYS[i % 2]
            chunk = stream[(i + 1) * size:(i + 2) * size]
            times[way].append(await block(way, chunk, session, encoder, executor))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="small data, few blocks")
    args = parser.parse_args(argv)
    bands, blocks, size = (40, 4, 20) if args.smoke else (400, 30, 200)
    times = asyncio.run(run(bands, blocks, size))
    rows = []
    for way in WAYS:
        row = [way, str(len(times[way]))]
        for index in (0, 1):  # wall, CPU
            per_op = sorted(t[index] * 1e6 / size for t in times[way])
            row.append("%.0f (%.0f-%.0f)" % (statistics.median(per_op), per_op[0], per_op[-1]))
        rows.append(row)
    print(format_table(["way", "blocks", "wall µs/op", "CPU µs/op"], rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
