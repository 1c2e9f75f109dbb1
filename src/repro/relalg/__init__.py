"""Columnar relation kernels: the set-oriented substrate of the
evaluation stack (ROADMAP item 2).

:mod:`repro.relalg.relation` defines the :class:`Relation`
representation and the kernels (``scan``/``semijoin``/``hash_join``/
``project``/``group_by``/``dedup``); :mod:`repro.relalg.config` resolves which
executor — columnar or whole-tree SQL pushdown — serves a given query
(``REPRO_KERNELS``).
"""

from .config import (
    KERNEL_COLUMNAR,
    KERNEL_SQL,
    KERNELS_ENV,
    MODE_AUTO,
    MODE_COLUMNAR,
    choose_kernel,
    force_kernels,
    kernel_mode,
)
from .relation import (
    Relation,
    dedup,
    from_mappings,
    group_by,
    hash_join,
    project,
    scan,
    semijoin,
    to_mappings,
)

__all__ = [
    "Relation",
    "scan",
    "semijoin",
    "hash_join",
    "project",
    "group_by",
    "dedup",
    "from_mappings",
    "to_mappings",
    "choose_kernel",
    "force_kernels",
    "kernel_mode",
    "KERNELS_ENV",
    "KERNEL_SQL",
    "KERNEL_COLUMNAR",
    "MODE_AUTO",
    "MODE_COLUMNAR",
]
