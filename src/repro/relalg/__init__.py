"""Columnar relation kernels: the set-oriented substrate of the
evaluation stack (ROADMAP item 2).

:mod:`repro.relalg.relation` defines the :class:`Relation`
representation and the kernels (``scan``/``semijoin``/``hash_join``/
``project``/``group_by``/``dedup``) that every answer query runs on,
whatever the backend: a backend serves them cells through its
``rows``/``probe`` seam (:class:`~repro.storage.base.StorageBackend`).
"""

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
]
