"""Central query planning: memoized structural analysis, bounded plan
caching, and plan-aware engine routing.

The paper's tractability landscape (Theorems 2/3 for CQs; 6–9 and 16 for
WDPTs) is decided entirely by structural parameters of the query.  This
package computes those parameters once per query *shape* (keyed by a
stable structural fingerprint), caches them in a bounded LRU, and routes
every evaluation problem to the engine the structure licenses, one
:class:`NodePlan` per shape and op kind — with counters (cache
hits/misses, analysis vs engine time, per-engine selections) for the
session API and the benchmark harness.
"""

from .cache import PlanCache
from .plan import (
    ENGINE_NAIVE,
    ENGINE_PROBE,
    ENGINE_TREEWIDTH,
    ENGINE_YANNAKAKIS,
    NodePlan,
    plan_node,
)
from .planner import Planner, get_default_planner
from .profile import StructuralProfile, TreeProfile

__all__ = [
    "PlanCache",
    "NodePlan",
    "plan_node",
    "ENGINE_NAIVE",
    "ENGINE_PROBE",
    "ENGINE_TREEWIDTH",
    "ENGINE_YANNAKAKIS",
    "Planner",
    "get_default_planner",
    "StructuralProfile",
    "TreeProfile",
]
