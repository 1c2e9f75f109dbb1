"""Conjunctive-query algorithms.

Evaluation engines (naive, Yannakakis, bounded treewidth),
homomorphisms, containment, cores, quotients, and the CQ approximations of
Barceló–Libkin–Romero used by Sections 5–6 of the paper.
"""

from .approximation import (
    approximations,
    in_beta_hw,
    in_tw,
    tw_approximations,
    union_approximation,
)
from .containment import (
    is_contained_in,
    reduce_union,
)
from .cores import (
    core,
    semantically_in_beta_hw,
    semantically_in_tw,
)
from .dispatch import evaluate, holds
from .enumeration import enumerate_answers
from .homomorphism import (
    apply_homomorphism,
    has_query_homomorphism,
    query_homomorphisms,
)
from .naive import (
    evaluate_naive,
    homomorphisms,
    satisfiable,
)
from .quotients import enumerate_quotients, quotient
from .structured import evaluate_bounded_treewidth, satisfiable_by_elimination
from .yannakakis import evaluate_acyclic, evaluate_with_join_tree

__all__ = [
    "approximations",
    "in_beta_hw",
    "in_tw",
    "tw_approximations",
    "union_approximation",
    "is_contained_in",
    "reduce_union",
    "core",
    "semantically_in_beta_hw",
    "semantically_in_tw",
    "evaluate",
    "holds",
    "enumerate_answers",
    "apply_homomorphism",
    "has_query_homomorphism",
    "query_homomorphisms",
    "evaluate_naive",
    "homomorphisms",
    "satisfiable",
    "enumerate_quotients",
    "quotient",
    "evaluate_bounded_treewidth",
    "satisfiable_by_elimination",
    "evaluate_acyclic",
    "evaluate_with_join_tree",
]
