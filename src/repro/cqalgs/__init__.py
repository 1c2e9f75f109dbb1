"""Conjunctive-query algorithms.

Evaluation engines (naive, Yannakakis, bounded treewidth),
homomorphisms, containment, cores, quotients, and the CQ approximations of
Barceló–Libkin–Romero used by Sections 5–6 of the paper.
"""

from .approximation import (
    approximations,
    beta_hw_approximations,
    in_beta_hw,
    in_tw,
    is_approximation,
    tw_approximations,
    union_approximation,
)
from .containment import (
    are_equivalent,
    is_contained_in,
    is_properly_contained_in,
    reduce_union,
    union_contained,
    union_equivalent,
)
from .cores import (
    core,
    is_core,
    semantically_in_beta_hw,
    semantically_in_hw,
    semantically_in_tw,
)
from .dispatch import evaluate, holds
from .enumeration import enumerate_answers
from .homomorphism import (
    apply_homomorphism,
    has_query_homomorphism,
    is_query_homomorphism,
    query_homomorphisms,
)
from .naive import (
    count_homomorphisms,
    evaluate_naive,
    homomorphisms,
    is_answer,
    satisfiable,
)
from .quotients import count_partitions, enumerate_quotients, quotient
from .structured import evaluate_bounded_treewidth, satisfiable_by_elimination
from .yannakakis import evaluate_acyclic, evaluate_with_join_tree

__all__ = [
    "approximations",
    "beta_hw_approximations",
    "in_beta_hw",
    "in_tw",
    "is_approximation",
    "tw_approximations",
    "union_approximation",
    "are_equivalent",
    "is_contained_in",
    "is_properly_contained_in",
    "reduce_union",
    "union_contained",
    "union_equivalent",
    "core",
    "is_core",
    "semantically_in_beta_hw",
    "semantically_in_hw",
    "semantically_in_tw",
    "evaluate",
    "holds",
    "enumerate_answers",
    "apply_homomorphism",
    "has_query_homomorphism",
    "is_query_homomorphism",
    "query_homomorphisms",
    "count_homomorphisms",
    "evaluate_naive",
    "homomorphisms",
    "is_answer",
    "satisfiable",
    "count_partitions",
    "enumerate_quotients",
    "quotient",
    "evaluate_bounded_treewidth",
    "satisfiable_by_elimination",
    "evaluate_acyclic",
    "evaluate_with_join_tree",
]
