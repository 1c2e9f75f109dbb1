"""The seven workloads, by name."""

from __future__ import annotations

from typing import Dict, Type

from ..harness import Workload
from .decide import Decide
from .eval_join import EvalJoin
from .eval_opt import EvalOpt
from .rw_sqlite import RwSqlite
from .serve import ServeCold, ServeHot
from .static import Static

REGISTRY: Dict[str, Type[Workload]] = {
    cls.name: cls for cls in (ServeHot, ServeCold, EvalOpt, EvalJoin, Decide, Static, RwSqlite)
}
