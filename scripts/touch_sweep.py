#!/usr/bin/env python
"""What a write pays for the touch test, by number of cached queries.

Usage::

    python scripts/touch_sweep.py            # prints the EXPERIMENTS.md table

A :class:`repro.engine.Session` write probes every cached WDPT with
:func:`repro.wdpt.touch.can_touch` before it carries or drops the
query's result-cache entries.  This sweep times single-triple writes
(``add_triples`` of one triple, then ``remove`` of it, alternating, as
the ``rw_sqlite`` workload does) on the ``music_catalog(100, 5)`` store
with 8 / 32 / 128 cached queries, on the memory backend and on an
on-disk SQLite file, for three kinds of written triple:

* ``no atom unifies`` — a predicate no query mentions: the pure-Python
  unification filter rejects every atom, the store is never asked;
* ``fails on first atom`` — an ``NME_rating`` of a subject that is no
  record: unifies with every query's OPTIONAL atom, and the first point
  lookup of the branch above it finds nothing (every entry is carried);
* ``succeeds`` — an ``NME_rating`` of a record of the band all the
  queries select: both point lookups of the branch succeed, every entry
  is dropped (and refilled, outside the timed region, before the next
  write).

Each cell is the median over the writes of ``cached`` minus the median
of the same writes on a session without a result cache (which skips the
funnel altogether), so the backend's own write — an fsync on the file —
is subtracted.  The last column is one cache miss of the same query on
the same store: what carrying an entry saves each time it is read again.
"""

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
from repro.workloads.datasets import music_catalog  # noqa: E402

SIZES = (8, 32, 128)
WRITES = 60

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


def median_write_us(session: Session, triple, queries) -> float:
    """Median µs of ``WRITES`` alternating add/remove calls, with
    ``queries`` cached (again) before each."""
    fact = Atom(TRIPLE_RELATION, triple)
    samples = []
    for k in range(WRITES):
        for q in queries:
            session.query(q)
        start = time.perf_counter()
        if k % 2 == 0:
            session.add_triples([triple])
        else:
            session.remove(fact)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


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


def main() -> None:
    facts = music_catalog(100, 5, seed=1).to_database().facts()
    print("| backend | written triple | cached queries | probe µs per write "
          "| µs per cached query | one miss µs |")
    print("|---|---|---|---|---|---|")
    with tempfile.TemporaryDirectory() as scratch:
        for backend in ("memory", "sqlite"):
            for label, triple in TRIPLES.items():
                with fresh(backend, scratch, facts, cache=False) as bare:
                    floor = median_write_us(bare, triple, ())
                for n in SIZES:
                    with fresh(backend, scratch, facts, cache_size=n) as session:
                        queries = [query(i) for i in range(n)]
                        probe = median_write_us(session, triple, queries) - floor
                        print("| %s | %s | %d | %.0f | %.1f | %.0f |" % (
                            backend, label, n, probe, probe / n, miss_us(session),
                        ))


if __name__ == "__main__":
    main()
