"""Well-designed pattern trees: the paper's primary contribution.

Structure (Definition 1), semantics (Definition 2), tractable evaluation
(Theorems 6–9), subsumption (Section 4), semantic optimization and
approximation (Section 5), and unions (Section 6).
"""

from .approximation import (
    candidate_space,
    find_wb_equivalent,
    is_in_m_wb,
    is_wb_approximation,
    wb_approximation,
    wb_approximations,
)
from .classes import (
    WB_BETA_HW,
    WB_TW,
    check_proposition2,
    cq_class_test,
    has_bounded_interface,
    interface_width,
    is_globally_in_beta_hw,
    is_globally_in_hw,
    is_globally_in_tw,
    is_in_wb,
    is_locally_in_hw,
    is_locally_in_tw,
    proposition2_bound,
)
from .containment import (
    canonical_witnesses,
    certify_containment_via_subsumption,
    containment_holds_on,
    equivalence_counterexample,
    refute_containment,
)
from .eval_tractable import eval_tractable
from .explain import WDPTProfile, explain
from .evaluation import (
    eval_check,
    evaluate,
    evaluate_max,
    evaluate_reference,
    homomorphisms_reference,
    max_eval_check,
    maximal_homomorphisms,
    partial_eval_check,
)
from .max_eval import max_eval
from .projection_free import eval_projection_free
from .partial_eval import partial_answers, partial_eval
from .subsumption import (
    is_max_equivalent,
    subsumption_counterexample,
    is_properly_subsumed_by,
    is_subsumed_by,
    is_subsumption_equivalent,
    max_equivalent_on,
    subsumed_on,
)
from .subtrees import (
    interface_to_children,
    interface_to_parent,
    maximal_subtree_within_free,
    minimal_subtree_containing,
    new_variables_at,
    rooted_subtrees,
    subtree_free_variables,
    top_node_of_variable,
)
from .rewrite import merge_duplicate_branches, optimize, remove_redundant_atoms
from .touch import can_touch
from .transform import lemma1_normal_form, merge_chains, prune_non_free_branches
from .tree import PatternTree
from .unions import (
    UWDPT,
    as_union_of_cqs,
    evaluate_union,
    evaluate_union_max,
    is_in_m_uwb,
    is_uwb_approximation,
    phi_cq,
    phi_cq_reduced,
    union_eval,
    union_max_eval,
    union_partial_eval,
    union_subsumed_by,
    union_subsumption_equivalent,
    uwb_approximation,
    uwb_equivalent,
)
from .wdpt import WDPT, wdpt_from_nested
from .witness import AnswerWitness, witness

__all__ = [
    "candidate_space",
    "find_wb_equivalent",
    "is_in_m_wb",
    "is_wb_approximation",
    "wb_approximation",
    "wb_approximations",
    "WB_BETA_HW",
    "WB_TW",
    "check_proposition2",
    "cq_class_test",
    "has_bounded_interface",
    "interface_width",
    "is_globally_in_beta_hw",
    "is_globally_in_hw",
    "is_globally_in_tw",
    "is_in_wb",
    "is_locally_in_hw",
    "is_locally_in_tw",
    "proposition2_bound",
    "canonical_witnesses",
    "certify_containment_via_subsumption",
    "containment_holds_on",
    "equivalence_counterexample",
    "refute_containment",
    "eval_tractable",
    "WDPTProfile",
    "explain",
    "eval_check",
    "evaluate",
    "evaluate_max",
    "evaluate_reference",
    "homomorphisms_reference",
    "max_eval_check",
    "maximal_homomorphisms",
    "partial_eval_check",
    "max_eval",
    "eval_projection_free",
    "partial_answers",
    "partial_eval",
    "is_max_equivalent",
    "is_properly_subsumed_by",
    "is_subsumed_by",
    "is_subsumption_equivalent",
    "max_equivalent_on",
    "subsumed_on",
    "subsumption_counterexample",
    "interface_to_children",
    "interface_to_parent",
    "maximal_subtree_within_free",
    "minimal_subtree_containing",
    "new_variables_at",
    "rooted_subtrees",
    "subtree_free_variables",
    "top_node_of_variable",
    "merge_duplicate_branches",
    "optimize",
    "remove_redundant_atoms",
    "can_touch",
    "lemma1_normal_form",
    "merge_chains",
    "prune_non_free_branches",
    "PatternTree",
    "UWDPT",
    "as_union_of_cqs",
    "evaluate_union",
    "evaluate_union_max",
    "is_in_m_uwb",
    "is_uwb_approximation",
    "phi_cq",
    "phi_cq_reduced",
    "union_eval",
    "union_max_eval",
    "union_partial_eval",
    "union_subsumed_by",
    "union_subsumption_equivalent",
    "uwb_approximation",
    "uwb_equivalent",
    "WDPT",
    "wdpt_from_nested",
    "AnswerWitness",
    "witness",
]
