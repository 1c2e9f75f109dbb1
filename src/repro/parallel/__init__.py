"""Process-parallel ``ask`` batches.

Parallelism lives at one outer seam, **across decisions**; a single
query runs start to finish on the thread that asked for it:
:func:`repro.parallel.batch.run_batch` decides independent ``(query,
candidate)`` pairs in worker processes and merges their telemetry
deterministically (surfaced as ``Session.run_batch``).
"""

from __future__ import annotations

from .batch import run_batch

__all__ = ["run_batch"]
