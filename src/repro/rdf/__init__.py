"""Semantic web frontend: triple stores, {AND, OPT} SPARQL, WDPT bridge.

The paper's results are stated over arbitrary relational schemas but apply
verbatim to RDF (a single ternary relation); this package provides that
instantiation end-to-end: parse an {AND, OPT} query, translate it to a
WDPT, and evaluate it over a triple store.
"""

from .algebra import And, Opt, Pattern, TriplePattern, is_well_designed
from .graph import TRIPLE_RELATION, RDFGraph
from .parser import parse_pattern, parse_query, tokenize
from .sparql import parse_sparql
from .translate import pattern_to_wdpt

__all__ = [
    "And",
    "Opt",
    "Pattern",
    "TriplePattern",
    "is_well_designed",
    "TRIPLE_RELATION",
    "RDFGraph",
    "parse_pattern",
    "parse_sparql",
    "parse_query",
    "tokenize",
    "pattern_to_wdpt",
]
