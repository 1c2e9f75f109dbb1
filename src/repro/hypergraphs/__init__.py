"""Hypergraphs, tree decompositions, and width measures.

The structural substrate behind the tractable classes ``TW(k)``, ``HW(k)``
and ``HW'(k)`` of the paper (Sections 3.1 and 5).
"""

from .beta import (
    beta_hypertreewidth_at_most,
    beta_hypertreewidth_exact,
    is_beta_acyclic,
)
from .fractional import (
    fractional_cover_number,
    fractional_hypertreewidth,
    fractional_hypertreewidth_upper_bound,
)
from .gyo import (
    JoinTree,
    gyo_reduction,
    is_alpha_acyclic,
    join_tree_is_valid,
    join_tree_of_atoms,
    join_tree_shape,
)
from .hypergraph import Hypergraph, hypergraph_of_atoms, hypergraph_of_cq
from .hypertree import (
    edge_cover_number,
    greedy_edge_cover,
    hypertree_decomposition,
    hypertreewidth_at_most,
    hypertreewidth_exact,
    minimum_edge_cover,
)
from .treedecomp import TreeDecomposition, decomposition_from_elimination_order
from .treewidth import (
    min_degree_order,
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
    "beta_hypertreewidth_exact",
    "is_beta_acyclic",
    "fractional_cover_number",
    "fractional_hypertreewidth",
    "fractional_hypertreewidth_upper_bound",
    "gyo_reduction",
    "is_alpha_acyclic",
    "join_tree_is_valid",
    "join_tree_of_atoms",
    "join_tree_shape",
    "JoinTree",
    "Hypergraph",
    "hypergraph_of_atoms",
    "hypergraph_of_cq",
    "edge_cover_number",
    "greedy_edge_cover",
    "hypertree_decomposition",
    "hypertreewidth_at_most",
    "hypertreewidth_exact",
    "minimum_edge_cover",
    "TreeDecomposition",
    "decomposition_from_elimination_order",
    "min_degree_order",
    "min_fill_order",
    "order_width",
    "tree_decomposition",
    "treewidth_at_most",
    "treewidth_exact",
    "treewidth_lower_bound",
    "treewidth_upper_bound",
]
