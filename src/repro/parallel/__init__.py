"""Parallel and batched WDPT evaluation.

Parallelism lives at one outer seam, **across queries**; a single query
runs start to finish on the thread that asked for it:
:func:`repro.parallel.batch.run_batch` fans independent queries over
thread or process workers (:mod:`repro.parallel.pool`), sharing one
warmed plan cache and merging per-worker telemetry deterministically
(surfaced as ``Session.run_batch`` / ``Session.map``).
"""

from __future__ import annotations

from .batch import BatchResult, run_batch
from .pool import EXECUTORS, WorkerPool, current_worker_id, effective_cpu_count

__all__ = [
    "BatchResult",
    "EXECUTORS",
    "WorkerPool",
    "current_worker_id",
    "effective_cpu_count",
    "run_batch",
]
