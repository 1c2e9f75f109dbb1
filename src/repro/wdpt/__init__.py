"""Well-designed pattern trees: the paper's primary contribution.

Structure (Definition 1), semantics (Definition 2), tractable evaluation
(Theorems 6–9), subsumption (Section 4), semantic optimization and
approximation (Section 5), and unions (Section 6).
"""

from .approximation import (
    find_wb_equivalent,
    is_in_m_wb,
    is_wb_approximation,
    wb_approximation,
    wb_approximations,
)
from .classes import (
    WB_TW,
    check_proposition2,
    has_bounded_interface,
    interface_width,
    is_globally_in_hw,
    is_globally_in_tw,
    is_in_wb,
    is_locally_in_hw,
    is_locally_in_tw,
)
from .containment import (
    certify_containment_via_subsumption,
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
    max_eval_check,
    maximal_homomorphisms,
)
from .max_eval import max_eval
from .projection_free import eval_projection_free
from .partial_eval import partial_eval
from .subsumption import (
    is_max_equivalent,
    subsumption_counterexample,
    is_properly_subsumed_by,
    is_subsumed_by,
    is_subsumption_equivalent,
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
)
from .rewrite import optimize
from .touch import can_touch
from .transform import lemma1_normal_form
from .tree import PatternTree
from .unions import (
    UWDPT,
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
    "find_wb_equivalent",
    "is_in_m_wb",
    "is_wb_approximation",
    "wb_approximation",
    "wb_approximations",
    "WB_TW",
    "check_proposition2",
    "has_bounded_interface",
    "interface_width",
    "is_globally_in_hw",
    "is_globally_in_tw",
    "is_in_wb",
    "is_locally_in_hw",
    "is_locally_in_tw",
    "certify_containment_via_subsumption",
    "equivalence_counterexample",
    "refute_containment",
    "eval_tractable",
    "WDPTProfile",
    "explain",
    "eval_check",
    "evaluate",
    "evaluate_max",
    "evaluate_reference",
    "max_eval_check",
    "maximal_homomorphisms",
    "max_eval",
    "eval_projection_free",
    "partial_eval",
    "is_max_equivalent",
    "is_properly_subsumed_by",
    "is_subsumed_by",
    "is_subsumption_equivalent",
    "subsumed_on",
    "subsumption_counterexample",
    "interface_to_children",
    "interface_to_parent",
    "maximal_subtree_within_free",
    "minimal_subtree_containing",
    "new_variables_at",
    "rooted_subtrees",
    "subtree_free_variables",
    "optimize",
    "can_touch",
    "lemma1_normal_form",
    "PatternTree",
    "UWDPT",
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
