"""Reference checks written straight from a definition.

Each one is the slow, obviously-correct side of a comparison: the tests
hold the library's engines against these, never the other way round.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Mapping as TMapping, Sequence, Set, Tuple

from repro.core.atoms import Atom
from repro.core.canonical import freeze_variable
from repro.core.cq import ConjunctiveQuery
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.core.terms import Term, Variable
from repro.cqalgs.containment import is_contained_in
from repro.cqalgs.naive import homomorphisms
from repro.cqalgs.quotients import enumerate_quotients
from repro.rdf.algebra import And, Opt, Pattern, TriplePattern
from repro.rdf.graph import TRIPLE_RELATION
from repro.telemetry.tracer import Span
from repro.wdpt.evaluation import evaluate, evaluate_max
from repro.wdpt.tree import ROOT
from repro.wdpt.wdpt import WDPT


# ---------------------------------------------------------------------------
# Mappings and homomorphisms
# ---------------------------------------------------------------------------
def is_maximal_in(candidate: Mapping, mappings: Iterable[Mapping]) -> bool:
    """Is ``candidate`` ``⊑``-maximal within ``mappings``?"""
    return not any(map(candidate.__lt__, mappings))


def freezing_of(variables: Iterable[Variable]) -> Mapping:
    """The mapping sending each variable to its frozen constant."""
    return Mapping({v: freeze_variable(v) for v in variables})


def is_query_homomorphism(
    source: Iterable[Atom], target: Iterable[Atom], h: TMapping[Variable, Term]
) -> bool:
    """Does ``h`` map every atom of ``source`` into ``target``?"""
    target_set = frozenset(target)
    return all(a.substitute(h) in target_set for a in source)


def count_homomorphisms(atoms: Iterable[Atom], db: Database) -> int:
    """Number of homomorphisms from ``atoms`` into ``db``."""
    return sum(1 for _ in homomorphisms(atoms, db))


# ---------------------------------------------------------------------------
# Conjunctive queries
# ---------------------------------------------------------------------------
def are_equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """``q₁ ≡ q₂``: containment in both directions."""
    return is_contained_in(q1, q2) and is_contained_in(q2, q1)


def is_properly_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """``q₁ ⊂ q₂``: contained but not equivalent."""
    return is_contained_in(q1, q2) and not is_contained_in(q2, q1)


def is_approximation(candidate: ConjunctiveQuery, query: ConjunctiveQuery, class_test) -> bool:
    """Is ``candidate`` a ``C``-approximation of ``query``?

    The definition, checked against the quotient witness space:
    ``candidate ∈ C``, ``candidate ⊆ query``, and no in-class quotient of
    ``query`` lies strictly between them.
    """
    if not class_test(candidate) or not is_contained_in(candidate, query):
        return False
    for q in enumerate_quotients(query):
        if not class_test(q):
            continue
        if is_contained_in(candidate, q) and is_contained_in(q, query):
            if is_properly_contained_in(candidate, q):
                return False
    return True


def join_tree_is_valid(atoms: Sequence[Atom], links: Sequence[Tuple[int, int]]) -> bool:
    """Is ``links`` (child, parent) a join tree of ``atoms``: a spanning
    tree with the running-intersection property?"""
    n = len(atoms)
    if n == 0:
        return not links
    if len(links) != n - 1:
        return False
    adjacency: Dict[int, Set[int]] = {i: set() for i in range(n)}
    for child, parent in links:
        adjacency[child].add(parent)
        adjacency[parent].add(child)
    if _reachable(0, adjacency, set(range(n))) != set(range(n)):
        return False
    for v in {v for a in atoms for v in a.variables()}:
        holders = {i for i, a in enumerate(atoms) if v in a.variables()}
        if _reachable(min(holders), adjacency, holders) != holders:
            return False
    return True


def _reachable(start: int, adjacency: Dict[int, Set[int]], allowed: Set[int]) -> Set[int]:
    seen: Set[int] = set()
    stack = [start]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        stack.extend(j for j in adjacency[i] if j in allowed and j not in seen)
    return seen


# ---------------------------------------------------------------------------
# WDPTs (Definition 2 semantics, enumerated)
# ---------------------------------------------------------------------------
def partial_eval_check(p: WDPT, db: Database, h: Mapping) -> bool:
    """``PARTIAL-EVAL`` by enumeration: is some ``h' ∈ p(D)`` with ``h ⊑ h'``?"""
    return any(h.subsumed_by(answer) for answer in evaluate(p, db))


def partial_answers(p: WDPT, db: Database) -> FrozenSet[Mapping]:
    """All partial answers of ``p`` over ``db``: the downward closure of
    ``p(D)`` under restriction."""
    out = set()
    for answer in evaluate(p, db):
        domain = sorted(answer.domain())
        for mask in range(1 << len(domain)):
            chosen = [v for i, v in enumerate(domain) if mask >> i & 1]
            out.add(answer.restrict(chosen))
    return frozenset(out)


def max_equivalent_on(p1: WDPT, p2: WDPT, db: Database) -> bool:
    """``p₁ₘ(D) = p₂ₘ(D)`` on one concrete database."""
    return evaluate_max(p1, db) == evaluate_max(p2, db)


def brute_force_sat(n_variables: int, clauses: Sequence[Sequence[int]]) -> bool:
    """CNF satisfiability by trying every assignment (DIMACS literals)."""
    for bits in range(1 << n_variables):
        assignment = [(bits >> i) & 1 for i in range(n_variables)]
        if all(
            any(assignment[abs(l) - 1] == (1 if l > 0 else 0) for l in clause)
            for clause in clauses
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# RDF
# ---------------------------------------------------------------------------
def wdpt_to_pattern(p: WDPT) -> Pattern:
    """Translate an RDF WDPT (all atoms over the triple relation) back into
    an {AND, OPT} pattern: the inverse of ``rdf.translate.pattern_to_wdpt``
    up to pattern-algebra associativity."""

    def bgp_of(node: int) -> Pattern:
        parts: List[Pattern] = []
        for a in sorted(p.labels[node]):
            if a.relation != TRIPLE_RELATION or a.arity != 3:
                raise ValueError("atom %r is not a triple; only RDF WDPTs translate back" % (a,))
            parts.append(TriplePattern(*a.args))
        combined = parts[0]
        for extra in parts[1:]:
            combined = And(combined, extra)
        return combined

    def walk(node: int) -> Pattern:
        result = bgp_of(node)
        for child in p.tree.children(node):
            result = Opt(result, walk(child))
        return result

    return walk(ROOT)


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------
def from_chrome_trace(events: Iterable[Dict[str, Any]]) -> List[Span]:
    """Rebuild the span forest from complete events: the inverse of
    ``telemetry.export.to_chrome_trace`` up to clock units and attr JSON
    coercion."""
    spans: List[Tuple[float, float, Span]] = []
    for event in events:
        if event.get("ph") != "X":
            continue
        span = Span(event["name"], event.get("args") or {})
        span.start = event["ts"] / 1e6
        span.end = span.start + event.get("dur", 0.0) / 1e6
        spans.append((span.start, -(span.end - span.start), span))
    spans.sort(key=lambda item: (item[0], item[1]))
    roots: List[Span] = []
    stack: List[Span] = []
    epsilon = 1e-9
    for start, _, span in spans:
        while stack and (stack[-1].end or 0.0) < start - epsilon:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            roots.append(span)
        stack.append(span)
    return roots
