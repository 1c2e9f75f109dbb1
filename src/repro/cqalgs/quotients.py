"""Variable-identification quotients of CQs.

A *quotient* ``q/θ`` of a CQ ``q`` identifies variables according to a
partition ``θ`` of its variables, where no class contains two distinct free
variables (answers are keyed by free-variable names, so merging free
variables would change the answer signature).  The class containing a free
variable is represented by that free variable; purely existential classes
by an arbitrary member.

Quotients are the witness space of CQ approximations (Barceló–Libkin–Romero
[4], used by Section 5/6 of the paper): every ``TW(k)``- or ``HW'(k)``-query
contained in ``q`` is contained in some quotient of ``q`` that lies in the
class — because a containment homomorphism ``q → canonical(q')`` induces a
variable identification whose image is a subquery of ``q'``, and both
classes are closed under subqueries.  Hence maximal in-class quotients are
exactly the approximations.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

from ..core.cq import ConjunctiveQuery
from ..core.terms import Variable
from ..exceptions import BudgetExceededError, ConstantsNotSupportedError

#: Quotient enumeration is exponential (Bell numbers); cap the variables.
QUOTIENT_VARIABLE_LIMIT = 12


def quotient(query: ConjunctiveQuery, blocks: Sequence[Sequence[Variable]]) -> ConjunctiveQuery:
    """The quotient of ``query`` by the partition ``blocks``.

    Each block is collapsed to a single representative — the block's free
    variable if it has one (at most one allowed), else its first member.
    Variables absent from every block stay untouched.
    """
    frees = frozenset(query.free_variables)
    renaming: Dict[Variable, Variable] = {}
    for block in blocks:
        block_frees = [v for v in block if v in frees]
        if len(block_frees) > 1:
            raise ValueError(
                "block %r merges distinct free variables %r" % (block, block_frees)
            )
        representative = block_frees[0] if block_frees else block[0]
        for v in block:
            renaming[v] = representative
    return query.rename(renaming)


def enumerate_quotients(query: ConjunctiveQuery) -> Iterator[ConjunctiveQuery]:
    """All quotients of ``query`` (including the identity quotient).

    Partitions are enumerated by the standard restricted-growth recursion;
    blocks violating the one-free-variable rule are pruned on the fly.
    Intended for approximation search; the paper's Section 5 assumption of
    constant-free queries is enforced.
    """
    if query.constants():
        raise ConstantsNotSupportedError(
            "quotient-based approximation requires a constant-free query "
            "(Section 5 of the paper); got constants %r" % (sorted(query.constants()),)
        )
    variables = sorted(query.variables())
    if len(variables) > QUOTIENT_VARIABLE_LIMIT:
        raise BudgetExceededError(
            "quotient enumeration limited to %d variables, got %d"
            % (QUOTIENT_VARIABLE_LIMIT, len(variables))
        )
    frees = frozenset(query.free_variables)
    seen = set()
    for partition in _partitions(variables, frees):
        q = quotient(query, partition)
        key = (q.free_variables, q.atoms)
        if key not in seen:
            seen.add(key)
            yield q


def _partitions(
    variables: List[Variable], frees: frozenset
) -> Iterator[List[List[Variable]]]:
    """Set partitions of ``variables`` with ≤ 1 free variable per block."""
    if not variables:
        yield []
        return

    def recurse(i: int, blocks: List[List[Variable]]) -> Iterator[List[List[Variable]]]:
        if i == len(variables):
            yield [list(b) for b in blocks]
            return
        v = variables[i]
        v_free = v in frees
        for b in blocks:
            if v_free and any(u in frees for u in b):
                continue
            b.append(v)
            yield from recurse(i + 1, blocks)
            b.pop()
        blocks.append([v])
        yield from recurse(i + 1, blocks)
        blocks.pop()

    yield from recurse(0, [])
