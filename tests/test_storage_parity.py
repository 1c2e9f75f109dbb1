"""Property-based parity: memory and SQLite backends are observationally
identical.

Random workloads from :mod:`repro.workloads.generators` run against both
backends through every evaluator the Session exposes — the top-down
evaluators (``query``/``query_maximal``), the Theorem 6 DP (``ask``),
and the Theorem 8/9 decision procedures (``is_partial``/``is_maximal``)
— plus Yannakakis directly on acyclic CQs, whose answers run on the
columnar kernels over either backend (``ask`` on SQLite decides its
Boolean checks in SQL).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.atoms import constants_of  # noqa: E402
from repro.engine import Session  # noqa: E402
from repro.planner.planner import Planner  # noqa: E402
from repro.storage import MemoryBackend, SQLiteBackend  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    path_cq,
    random_database,
    random_wdpt,
    star_cq,
)

RELATIONS = ("E", "F")


def _pair(seed, n_facts=15, domain_size=3):
    facts = random_database(
        n_facts, relations=RELATIONS, domain_size=domain_size, seed=seed
    ).facts()
    return MemoryBackend(facts), SQLiteBackend(facts)


def _query(seed):
    # Kept small (one atom and one fresh variable per node): free-variable
    # counts beyond a handful make the answer space explode combinatorially,
    # and the property needs many examples, not big ones.
    return random_wdpt(
        depth=2,
        fanout=2,
        atoms_per_node=1,
        fresh_vars_per_node=1,
        relations=RELATIONS,
        seed=seed,
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_query_and_maximal_parity(seed):
    mem, sql = _pair(seed)
    s_mem = Session(mem, cache=False)
    s_sql = Session(sql, cache=False)
    query = _query(seed)
    assert s_mem.query(query).answers == s_sql.query(query).answers
    assert (
        s_mem.query_maximal(query).answers == s_sql.query_maximal(query).answers
    )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_decision_procedure_parity(seed):
    mem, sql = _pair(seed)
    s_mem = Session(mem, cache=False)
    s_sql = Session(sql, cache=False)
    query = _query(seed)
    answers = sorted(s_mem.query(query).answers, key=repr)[:3]
    for candidate in answers:
        assert s_mem.ask(query, candidate) is s_sql.ask(query, candidate) is True
        partial = candidate.restrict(sorted(candidate.domain(), key=repr)[:1])
        assert s_mem.is_partial(query, partial) is s_sql.is_partial(query, partial)
        assert s_mem.is_maximal(query, candidate) is s_sql.is_maximal(
            query, candidate
        )


class _NoPushdownSQLite(SQLiteBackend):
    """SQLite without the Boolean ``EXISTS`` statement: every run, Boolean
    or not, goes to the columnar kernels over ``rows``/``probe``."""

    supports_sql_yannakakis = False

    def sql_yannakakis(self, atoms, links):
        raise AssertionError("a backend without the pushdown entered it")


@pytest.mark.parametrize("mode", ["auto", "columnar"])
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10 ** 6),
    length=st.integers(min_value=1, max_value=4),
    rays=st.integers(min_value=1, max_value=3),
)
def test_acyclic_cq_parity_per_kernel_mode(mode, seed, length, rays):
    # Answers run on the columnar kernels over both backends.  ``auto``
    # leaves SQLite's Boolean checks to its own ``EXISTS`` statement;
    # ``columnar`` takes that statement away, so they run on the columnar
    # kernels over SQLite's ``rows``/``probe`` seam too.
    facts = random_database(
        30, relations=RELATIONS, domain_size=5, seed=seed
    ).facts()
    mem = MemoryBackend(facts)
    sql = SQLiteBackend(facts) if mode == "auto" else _NoPushdownSQLite(facts)
    planner = Planner()
    for q in (path_cq(length), star_cq(rays)):
        assert planner.evaluate_cq(q, mem) == planner.evaluate_cq(q, sql)
        profile = planner.profile_cq(q)
        first = sorted(q.free_variables, key=repr)[0]
        for bind in [{}] + [{first: c} for c in sorted(constants_of(facts), key=repr)]:
            assert planner.satisfiable_substituted(
                profile, bind, mem
            ) is planner.satisfiable_substituted(profile, bind, sql)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
def test_parity_survives_mutation(seed):
    mem, sql = _pair(seed)
    query = _query(seed)
    s_mem = Session(mem)
    s_sql = Session(sql)
    assert s_mem.query(query).answers == s_sql.query(query).answers
    victim = sorted(mem.facts(), key=repr)[0]
    for db in (mem, sql):
        db.remove(victim)
    assert mem == sql
    # Caches are version-stamped, so both sessions re-evaluate and agree.
    assert s_mem.query(query).answers == s_sql.query(query).answers
