"""Relational substrate: terms, atoms, databases, mappings, CQs.

This package contains the data model shared by the whole library — it is the
"Section 2 (Preliminaries)" of the reproduction.
"""

from .atoms import Atom, Schema, atom, constants_of, variables_of
from .canonical import (
    canonical_database_of_atoms,
    freeze_atoms,
    freeze_variable,
    is_frozen_constant,
    unfreeze_constant,
)
from .cq import ConjunctiveQuery, cq
from .database import Database
from .mappings import Mapping, maximal_mappings
from .terms import Constant, Term, Variable, term, terms

__all__ = [
    "Atom",
    "Schema",
    "atom",
    "constants_of",
    "variables_of",
    "canonical_database_of_atoms",
    "freeze_atoms",
    "freeze_variable",
    "is_frozen_constant",
    "unfreeze_constant",
    "ConjunctiveQuery",
    "cq",
    "Database",
    "Mapping",
    "maximal_mappings",
    "Constant",
    "Term",
    "Variable",
    "term",
    "terms",
]
