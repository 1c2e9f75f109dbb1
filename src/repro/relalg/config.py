"""Kernel selection for the relational-algebra layer.

Two executors run Yannakakis' algorithm over a join tree
(:mod:`repro.cqalgs.yannakakis`):

* ``columnar`` — the set-oriented kernels of
  :mod:`repro.relalg.relation`: explicit variable schemas, tuple rows,
  shared-variable layouts computed once per join-tree edge;
* ``sql`` — the whole-tree SQL pushdown of
  :meth:`repro.storage.sqlite.SQLiteBackend.sql_yannakakis` (only
  available when the database is SQLite-backed).

The **mode** is user-facing policy, read from the ``REPRO_KERNELS``
environment variable (or forced programmatically with
:func:`force_kernels`):

* ``auto`` (default) — the SQL pushdown on SQLite, otherwise the
  columnar kernels;
* ``columnar`` — always the columnar Python kernels (even on SQLite).

The **kernel** is the resolved per-execution choice (``sql`` /
``columnar``), computed by :func:`choose_kernel` from the mode plus
the database's capabilities — and from nothing else, so the kernel a
plan, a trace, or the obslog names is the kernel that ran the query.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

#: Environment variable naming the kernel mode.
KERNELS_ENV = "REPRO_KERNELS"

#: User-facing modes.
MODE_AUTO = "auto"
MODE_COLUMNAR = "columnar"
MODES = (MODE_AUTO, MODE_COLUMNAR)

#: Resolved per-execution kernels.
KERNEL_SQL = "sql"
KERNEL_COLUMNAR = "columnar"

#: Programmatic override (tests, benchmarks); ``None`` defers to the env.
_forced: Optional[str] = None


def kernel_mode() -> str:
    """The active kernel mode: the :func:`force_kernels` override when
    one is installed, else ``REPRO_KERNELS``, else ``auto``."""
    if _forced is not None:
        return _forced
    raw = os.environ.get(KERNELS_ENV, MODE_AUTO).strip().lower() or MODE_AUTO
    if raw not in MODES:
        raise ValueError(
            "%s=%r is not a kernel mode (expected one of %s)"
            % (KERNELS_ENV, raw, ", ".join(MODES))
        )
    return raw


@contextmanager
def force_kernels(mode: str) -> Iterator[None]:
    """Force the kernel mode for the dynamic extent of the block,
    overriding ``REPRO_KERNELS`` — the parity tests pin each path with
    this."""
    if mode not in MODES:
        raise ValueError("unknown kernel mode %r (expected one of %s)" % (mode, ", ".join(MODES)))
    global _forced
    previous = _forced
    _forced = mode
    try:
        yield
    finally:
        _forced = previous


def choose_kernel(db: object) -> str:
    """Resolve the mode against the database's capabilities — the kernel
    a Yannakakis run against ``db`` uses right now, and what EXPLAIN and
    the obslog stamp on plans (``db=None``: a plan built without a
    database runs columnar).

    The SQL pushdown is only chosen in ``auto`` mode, when the backend
    advertises :attr:`supports_sql_yannakakis`.
    """
    if kernel_mode() == MODE_COLUMNAR:
        return KERNEL_COLUMNAR
    if getattr(db, "supports_sql_yannakakis", False):
        return KERNEL_SQL
    return KERNEL_COLUMNAR
