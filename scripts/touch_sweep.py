#!/usr/bin/env python
"""What a write pays for the touch test, by number of cached queries.

Usage::

    python scripts/touch_sweep.py            # prints the EXPERIMENTS.md table
    python scripts/touch_sweep.py --smoke    # 10 bands, 8 queries, a few seconds

A :class:`repro.engine.Session` write runs every cached WDPT's touch
program (:func:`repro.wdpt.touch.touch_program`, its checks through
``Planner.check``) before it carries or drops the query's result-cache
entries.  This sweep times that pass itself — the calls the write funnel
makes for each cached query, over the store holding the written triple —
on the ``music_catalog(100, 5)`` store with 8 / 32 / 128 cached queries,
on the memory backend and on an on-disk SQLite file, for three kinds of
written triple:

* ``no atom unifies`` — a predicate no query mentions: every atom's
  template rejects it, the store is never asked;
* ``fails on first atom`` — an ``NME_rating`` of a subject that is no
  record: unifies with every query's OPTIONAL atom, and the point lookup
  of the branch above it finds nothing (every entry is carried);
* ``succeeds`` — an ``NME_rating`` of a record of the band all the
  queries select: the lookup of the branch succeeds (every entry is
  dropped).

Each cell is the best of 15 passes over the cached queries; the backend's
own write (an fsync on the file) is outside it.  ``one miss µs`` is the
median of one uncached evaluation of the same query on the same store:
what carrying an entry saves each time it is read again.  ``N*`` is where
the test stops paying at ``rw_sqlite``'s 4 % writes, ``(1 − w)/w ·
miss / probe``: past that many cached queries the writer spends more on
the test than the readers save (ROADMAP item 4).

Every verdict is compared with the planner-less :func:`repro.wdpt.touch.
can_touch`; the script exits 1 when one differs or when a cell whose
triple unifies issued no check (the seam moved), so it is a gate as well
as a report.
"""

import argparse
import os
import statistics
import sys
import tempfile
import time
from contextlib import contextmanager

# Runnable straight from a checkout, before any `pip install -e .`.
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
sys.path.insert(0, os.path.abspath(_SRC))

from repro.core.atoms import Atom  # noqa: E402
from repro.engine import Session  # noqa: E402
from repro.rdf.graph import TRIPLE_RELATION  # noqa: E402
from repro.wdpt.touch import can_touch, touch_program  # noqa: E402
from repro.workloads.datasets import music_catalog  # noqa: E402

PASSES = 15
WRITE_SHARE = 0.04

TRIPLES = {
    "no atom unifies": ("record_3_1", "liked_by", "w"),
    "fails on first atom": ("nobody", "NME_rating", "w"),
    "succeeds": ("record_3_1", "NME_rating", "w"),
}


def query(i: int) -> str:
    """The ``rw_sqlite`` band query of band 3, made distinct per ``i`` by
    an OPTIONAL over a predicate of its own (which matches nothing)."""
    return (
        "SELECT ?x ?z ?z2 ?t WHERE { ?x recorded_by band_3 . "
        "OPTIONAL { ?x NME_rating ?z } OPTIONAL { band_3 formed_in ?z2 } "
        "OPTIONAL { ?x tag_%d ?t } }" % i
    )


def touch_pass(session: Session, fact: Atom):
    """The write funnel's touch pass for ``fact`` over the queries cached
    at the current version: best µs of ``PASSES`` passes, checks issued
    per pass, and the verdicts."""
    db, planner = session.database, session.planner
    queries = session.result_cache.queries(db.backend_id, db.data_version)
    db.add(fact)  # the store must hold the fact (an insert probes after)
    try:
        best = float("inf")
        for _ in range(PASSES):
            checks, verdicts = 0, []
            start = time.perf_counter()
            for p in queries:
                touched, issued = touch_program(p, planner).touches((fact,), db, planner)
                verdicts.append(touched)
                checks += issued
            best = min(best, time.perf_counter() - start)
        reference = [can_touch(p, db, fact) for p in queries]
    finally:
        db.discard(fact)
    return best * 1e6, checks, verdicts == reference


def miss_us(session: Session) -> float:
    uncached = Session(session.database, planner=session.planner, cache=False)
    samples = []
    for _ in range(30):
        start = time.perf_counter()
        uncached.query(query(0))
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


@contextmanager
def fresh(backend: str, scratch: str, facts, **kwargs):
    """A new session over ``facts``; on SQLite a new file under
    ``scratch``, closed on exit."""
    path = None
    if backend == "sqlite":
        path = os.path.join(scratch, "sweep_%d.sqlite" % len(os.listdir(scratch)))
    session = Session(backend=backend, path=path, **kwargs)
    try:
        session.database.add_many(facts)
        yield session
    finally:
        if backend == "sqlite":
            session.database.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="10 bands, 8 cached queries")
    args = parser.parse_args()
    bands, sizes = (10, (8,)) if args.smoke else (100, (8, 32, 128))
    facts = music_catalog(bands, 5, seed=1).to_database().facts()
    failures = []
    print("| backend | written triple | cached queries | touch µs per write "
          "| µs per cached query | checks per write | one miss µs | N* at 4 % writes |")
    print("|---|---|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as scratch:
        for backend in ("memory", "sqlite"):
            for label, triple in TRIPLES.items():
                for n in sizes:
                    with fresh(backend, scratch, facts, cache_size=n) as session:
                        for i in range(n):
                            session.query(query(i))
                        fact = Atom(TRIPLE_RELATION, triple)
                        probe, checks, agree = touch_pass(session, fact)
                        miss = miss_us(session)
                    per_query = probe / n
                    n_star = (1 - WRITE_SHARE) / WRITE_SHARE * miss / per_query
                    print("| %s | %s | %d | %.0f | %.1f | %d | %.0f | %.0f |" % (
                        backend, label, n, probe, per_query, checks, miss, n_star,
                    ))
                    if not agree:
                        failures.append("%s/%s/%d: a verdict differs from can_touch"
                                        % (backend, label, n))
                    if label != "no atom unifies" and checks == 0:
                        failures.append("%s/%s/%d: no check ran" % (backend, label, n))
    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
