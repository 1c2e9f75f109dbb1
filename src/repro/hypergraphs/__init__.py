"""Hypergraphs, tree decompositions, and width measures.

The structural substrate behind the tractable classes ``TW(k)``, ``HW(k)``
and ``HW'(k)`` of the paper (Sections 3.1 and 5).
"""

from .beta import beta_hypertreewidth_at_most
from .gyo import (
    JoinTree,
    is_alpha_acyclic,
    join_tree_of_atoms,
    join_tree_shape,
)
from .hypergraph import Hypergraph, hypergraph_of_cq
from .hypertree import (
    hypertree_decomposition,
    hypertreewidth_at_most,
    hypertreewidth_exact,
)
from .treedecomp import TreeDecomposition, decomposition_from_elimination_order
from .treewidth import (
    elimination_order,
    min_fill_order,
    order_width,
    tree_decomposition,
    treewidth_at_most,
    treewidth_exact,
    treewidth_lower_bound,
    treewidth_upper_bound,
)

__all__ = [
    "beta_hypertreewidth_at_most",
    "is_alpha_acyclic",
    "join_tree_of_atoms",
    "join_tree_shape",
    "JoinTree",
    "Hypergraph",
    "hypergraph_of_cq",
    "hypertree_decomposition",
    "hypertreewidth_at_most",
    "hypertreewidth_exact",
    "TreeDecomposition",
    "decomposition_from_elimination_order",
    "elimination_order",
    "min_fill_order",
    "order_width",
    "tree_decomposition",
    "treewidth_at_most",
    "treewidth_exact",
    "treewidth_lower_bound",
    "treewidth_upper_bound",
]
