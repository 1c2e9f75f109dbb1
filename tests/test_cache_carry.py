"""A write keeps the cached answers it provably cannot touch.

``Session.add`` / ``remove`` / ``add_triples`` run the touch test
(:func:`repro.wdpt.touch.can_touch`) for every cached WDPT and re-stamp
the entries it clears (:meth:`repro.storage.cache.ResultCache.advance`).
Three kinds of test, none with a clock in it:

* a differential — random WDPTs over ``triple/3``, random interleavings
  of the three write calls and of all five ``Session`` read operations,
  on memory / SQLite, against Definition 2 computed from
  scratch after **every** step;
* structure — which entries survive as the *same object*, how many slots
  the cache holds, which writes carry nothing at all;
* pinned cases, one per way of getting the test wrong (each kills a
  mutant named in its docstring).
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.atoms import Atom, atom  # noqa: E402
from repro.core.mappings import Mapping, maximal_mappings  # noqa: E402
from repro.core.terms import Constant, Variable  # noqa: E402
from repro.engine import Session  # noqa: E402
from repro.rdf.graph import TRIPLE_RELATION  # noqa: E402
from repro.service.protocol import AnswerEncoder  # noqa: E402
from repro.storage import MemoryBackend, ResultCache, SQLiteBackend  # noqa: E402
from repro.storage.cache import CARRIED, DROPPED  # noqa: E402
from repro.telemetry.obslog import QueryLog, validate_obslog  # noqa: E402
from repro.telemetry.tracer import Tracer, tracing  # noqa: E402
from repro.wdpt.evaluation import evaluate_reference  # noqa: E402
from repro.wdpt.touch import can_touch, unify  # noqa: E402
from repro.wdpt.tree import PatternTree  # noqa: E402
from repro.wdpt.wdpt import WDPT, wdpt_from_nested  # noqa: E402

BACKENDS = ("memory", "sqlite")


def triple(s, p, o) -> Atom:
    return Atom(TRIPLE_RELATION, (s, p, o))


# ---------------------------------------------------------------------------
# Strategies: small WDPTs over triple/3 with constants and repeated
# variables, and scripts of writes
# ---------------------------------------------------------------------------
SUBJECTS = (0, 1, 2)
PREDICATES = ("p", "q")

facts_st = st.builds(
    triple, st.sampled_from(SUBJECTS), st.sampled_from(PREDICATES),
    st.sampled_from(SUBJECTS),
)


@st.composite
def wdpts(draw) -> WDPT:
    """Well-designed by construction: a node draws its variables from the
    ones its parent *mentions* and from fresh ones."""
    n_nodes = draw(st.integers(1, 4))
    parents = [draw(st.integers(0, n - 1)) for n in range(1, n_nodes)]
    mentioned = []
    labels = []
    fresh = iter("abcdefghijklmnop")
    for node in range(n_nodes):
        pool = [Variable(next(fresh)), Variable(next(fresh))]
        if node:
            pool += sorted(mentioned[parents[node - 1]])
        terms = st.sampled_from(pool) | st.sampled_from(SUBJECTS)
        label = [
            triple(draw(terms), draw(st.sampled_from(PREDICATES)), draw(terms))
            for _ in range(draw(st.integers(1, 2)))
        ]
        labels.append(label)
        mentioned.append({v for a in label for v in a.variables()})
    variables = sorted(set().union(*mentioned))
    frees = [v for v in variables if draw(st.booleans())]
    return WDPT(PatternTree(parents), labels, frees)


writes_st = st.one_of(
    st.tuples(st.just("add"), facts_st),
    st.tuples(st.just("remove"), facts_st),
    st.tuples(st.just("add_triples"), st.lists(facts_st, max_size=3)),
)


def candidates_of(p: WDPT, answers) -> list:
    """A few fixed candidates per query: an answer, a restriction of it,
    the empty mapping and a mapping no answer extends."""
    out = [Mapping({})]
    if p.free_variables:
        out.append(Mapping({p.free_variables[0]: 99}))
    for answer in sorted(answers, key=repr)[:1]:
        out.append(answer)
        out.append(answer.restrict(sorted(answer.domain())[:1]))
    return out


def check_reads(session: Session, model: set, queries, candidates) -> None:
    """All five read operations against Definition 2 from scratch."""
    scratch = MemoryBackend(model)
    for p, cands in zip(queries, candidates):
        expected = evaluate_reference(p, scratch)
        maximal = maximal_mappings(expected)
        assert session.query(p).answers == expected
        assert session.query_maximal(p).answers == maximal
        for h in cands:
            assert session.ask(p, h) == (h in expected)
            assert session.is_partial(p, h) == any(
                h.subsumed_by(a) for a in expected
            )
            assert session.is_maximal(p, h) == (h in maximal)


def apply_write(session: Session, model: set, step) -> None:
    kind, arg = step
    if kind == "add":
        assert session.add(arg) == (arg not in model)
        model.add(arg)
    elif kind == "remove":
        if arg in model:
            session.remove(arg)
            model.discard(arg)
        else:
            with pytest.raises(KeyError):
                session.remove(arg)
    else:
        new = set(arg) - model
        assert session.add_triples([a.args for a in arg]) == len(new)
        model |= new


#: hits served over all examples of the differential, per backend — the
#: property is vacuous if writes never leave anything to hit.
_HITS_ACROSS_WRITES = dict.fromkeys(BACKENDS, 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_random_writes_and_reads_agree_with_definition_2(backend):
    # One store for all examples, emptied in between.
    owner = Session(backend=backend)
    db = owner.database

    @settings(max_examples=200, deadline=None)
    @given(
        initial=st.lists(facts_st, max_size=8),
        queries=st.lists(wdpts(), min_size=1, max_size=3),
        steps=st.lists(writes_st, min_size=1, max_size=6),
    )
    def run(initial, queries, steps):
        for fact in list(db):
            db.discard(fact)
        model = set(initial)
        db.add_many(model)
        session = Session(db)
        scratch = MemoryBackend(model)
        candidates = [
            candidates_of(p, evaluate_reference(p, scratch)) for p in queries
        ]
        check_reads(session, model, queries, candidates)
        for step in steps:
            apply_write(session, model, step)
            session.reset_stats()
            check_reads(session, model, queries, candidates)
            _HITS_ACROSS_WRITES[backend] += session.result_cache.hits
        assert session.result_cache.stats()["evictions"] == 0

    with owner:
        run()
    assert _HITS_ACROSS_WRITES[backend] > 200


# ---------------------------------------------------------------------------
# The touch test itself
# ---------------------------------------------------------------------------
class TestUnify:
    def test_binds_variables_and_checks_constants(self):
        assert unify(atom("E", "?x", 2), atom("E", 1, 2)) == {Variable("x"): Constant(1)}
        assert unify(atom("E", "?x", 3), atom("E", 1, 2)) is None
        assert unify(atom("F", "?x", 2), atom("E", 1, 2)) is None
        assert unify(atom("E", "?x"), atom("E", 1, 2)) is None

    def test_repeated_variable_needs_equal_arguments(self):
        assert unify(atom("E", "?x", "?x"), atom("E", 1, 2)) is None
        assert unify(atom("E", "?x", "?x"), atom("E", 1, 1)) is not None


@given(p=wdpts(), facts=st.lists(facts_st, max_size=8), fact=facts_st)
@settings(max_examples=200, deadline=None)
def test_a_fact_that_cannot_touch_changes_nothing(p, facts, fact):
    """The soundness statement, on the reference evaluator alone."""
    with_fact = MemoryBackend(set(facts) | {fact})
    without = MemoryBackend(set(facts) - {fact})
    if not can_touch(p, with_fact, fact):
        assert evaluate_reference(p, with_fact) == evaluate_reference(p, without)


# ---------------------------------------------------------------------------
# Pinned cases
# ---------------------------------------------------------------------------
RATED = "SELECT ?x ?z WHERE { ?x recorded_by ?y OPTIONAL { ?x NME_rating ?z } }"


@pytest.fixture(params=BACKENDS)
def session(request):
    facts = [
        triple("swim", "recorded_by", "caribou"),
        triple("swim", "NME_rating", "2"),
        triple("andorra", "recorded_by", "caribou"),
    ]
    with Session(facts, backend=request.param) as s:
        yield s


def fresh_answers(session: Session, query):
    return Session(session.database, cache=False).query(query).answers


class TestWhatSurvivesAWrite:
    def test_untouching_write_keeps_the_answer_object(self, session):
        encoder = AnswerEncoder()
        first = session.query(RATED).answers
        encoder.fragment(first)
        assert session.add(triple("caribou", "formed_in", "2001"))
        assert session.add_triples([("x", "likes", "y")]) == 1
        session.remove(triple("x", "likes", "y"))
        again = session.query(RATED).answers
        assert again is first
        encoder.fragment(again)
        assert len(encoder) == 1
        stats = session.result_cache.stats()
        assert (stats["hits"], stats["carried"], stats["dropped"]) == (1, 3, 0)

    def test_write_to_an_optional_node_misses(self, session):
        """Mutants: "carry everything"; "unify against the root label only"."""
        before = session.query(RATED).answers
        assert session.add(triple("andorra", "NME_rating", "9"))
        after = session.query(RATED).answers
        assert session.result_cache.hits == 0
        assert after == fresh_answers(session, RATED) and after != before
        assert session.result_cache.stats()["dropped"] == 1

    def test_rating_of_an_unrecorded_subject_is_carried(self, session):
        """Unifies with the OPTIONAL atom, but the branch above it is
        not satisfiable for that subject: one failed point lookup."""
        first = session.query(RATED).answers
        assert session.add(triple("nobody", "NME_rating", "1"))
        assert session.query(RATED).answers is first
        assert first == fresh_answers(session, RATED)

    def test_all_entries_of_a_query_share_the_verdict(self, session):
        answer = sorted(session.query(RATED).answers, key=repr)[0]
        session.query_maximal(RATED)
        for op in (session.ask, session.is_partial, session.is_maximal):
            op(RATED, answer)
        session.reset_stats()
        assert session.add(triple("caribou", "formed_in", "2001"))
        assert session.result_cache.stats()["carried"] == 5
        session.query(RATED), session.query_maximal(RATED)
        for op in (session.ask, session.is_partial, session.is_maximal):
            op(RATED, answer)
        assert (session.result_cache.hits, session.result_cache.misses) == (5, 0)

    def test_delete_is_probed_while_the_fact_is_there(self, session):
        """Mutant: "probe after the delete, t gone" — the fact unifies
        with two atoms, and once it is gone neither probe finds the other
        atom's match."""
        twice = wdpt_from_nested(
            ([triple("?x", "recorded_by", "?y"), triple("?x", "recorded_by", "?z")], []),
            free_variables=["?x"],
        )
        before = session.query(twice).answers
        session.remove(triple("andorra", "recorded_by", "caribou"))
        after = session.query(twice).answers
        assert session.result_cache.hits == 0
        assert after == fresh_answers(session, twice) and after != before

    def test_repeated_variable_atom(self, session):
        loop = wdpt_from_nested(
            ([triple("?x", "knows", "?x")], []), free_variables=["?x"]
        )
        empty = session.query(loop).answers
        assert session.add(triple("a", "knows", "b"))  # does not unify
        assert session.query(loop).answers is empty
        assert session.add(triple("a", "knows", "a"))
        assert session.query(loop).answers == fresh_answers(session, loop) != empty
        assert session.result_cache.hits == 1

    def test_deep_node_reached_through_the_same_call(self, session):
        """The branch of the deepest node is satisfiable only through
        another triple of the same ``add_triples`` call: all of them are
        tested against the store that holds them all."""
        chain = wdpt_from_nested(
            (
                [triple("?x", "recorded_by", "?y")],
                [([triple("?y", "signed_to", "?l")],
                  [([triple("?l", "based_in", "?c")], [])])],
            ),
            free_variables=["?x", "?l", "?c"],
        )
        before = session.query(chain).answers
        added = session.add_triples(
            [("merge", "based_in", "durham"), ("caribou", "signed_to", "merge")]
        )
        assert added == 2
        after = session.query(chain).answers
        assert session.result_cache.hits == 0
        assert after == fresh_answers(session, chain) and after != before

    def test_slots_do_not_multiply(self, session):
        queries = [RATED, "SELECT ?x WHERE { ?x recorded_by caribou }"]
        for i in range(100):
            fact = triple("swim" if i % 7 == 0 else "zzz", "NME_rating", "w%d" % i)
            assert session.add(fact)
            for q in queries:
                session.query(q)
            session.remove(fact)
            for q in queries:
                session.query(q)
        stats = session.result_cache.stats()
        assert len(session.result_cache) == stats["size"] == len(queries)
        assert stats["evictions"] == 0
        assert stats["hits"] > stats["misses"] > 0

    def test_noop_writes_move_nothing(self, session):
        first = session.query(RATED).answers
        assert not session.add(triple("swim", "NME_rating", "2"))
        assert session.add_triples([("swim", "NME_rating", "2")]) == 0
        with pytest.raises(KeyError):
            session.remove(triple("swim", "NME_rating", "3"))
        assert session.query(RATED).answers is first
        stats = session.result_cache.stats()
        assert stats["carried"] == stats["dropped"] == 0


class TestNothingIsCarriedAroundTheSession:
    """Every path the funnel does not see leaves the stamps behind: the
    entries miss, exactly as when the version was part of the key."""

    UNTOUCHING = triple("caribou", "formed_in", "2001")

    def test_direct_backend_add(self, session):
        session.query(RATED)
        session.database.add(self.UNTOUCHING)
        session.query(RATED)
        assert session.result_cache.hits == 0

    def test_add_many(self, session):
        session.query(RATED)
        session.database.add_many([self.UNTOUCHING])
        session.query(RATED)
        assert session.result_cache.hits == 0

    def test_second_session_with_its_own_cache(self, session):
        other = Session(session.database)
        other.query(RATED)
        session.query(RATED)
        assert session.add(self.UNTOUCHING)
        session.query(RATED)
        other.query(RATED)
        assert session.result_cache.hits == 1
        assert other.result_cache.hits == 0

    def test_version_that_moved_by_more_than_the_call_wrote(self):
        class BumpsTwice(MemoryBackend):
            def add(self, fact):
                new = super().add(fact)
                self._version += int(new)
                return new

        session = Session(BumpsTwice([triple("swim", "recorded_by", "caribou")]))
        session.query(RATED)
        assert session.add(self.UNTOUCHING)
        session.query(RATED)
        stats = session.result_cache.stats()
        assert (stats["hits"], stats["carried"], stats["dropped"]) == (0, 0, 0)

    def test_entry_left_behind_is_not_picked_up_later(self, session):
        """Mutant: "advance a stamp that is not ``before``"."""
        stale = session.query(RATED).answers
        session.database.add(triple("andorra", "NME_rating", "9"))  # unseen, touching
        assert session.add(self.UNTOUCHING)
        answers = session.query(RATED).answers
        assert answers == fresh_answers(session, RATED) != stale
        assert session.result_cache.hits == 0

    def test_sessions_sharing_cache_and_backend_both_hit(self):
        shared = ResultCache()
        db = MemoryBackend([triple("swim", "recorded_by", "caribou")])
        one, two = Session(db, cache=shared), Session(db, cache=shared)
        first = one.query(RATED).answers
        assert two.add(self.UNTOUCHING)
        assert one.query(RATED).answers is first
        assert two.query(RATED).answers is first
        assert one.add(triple("swim", "NME_rating", "2"))
        assert two.query(RATED).answers == fresh_answers(two, RATED) != first


class TestResultCacheAdvance:
    KEY = ResultCache.key("query", "f1", "db#1")

    def test_compare_and_set_on_the_stamp(self):
        cache = ResultCache()
        value = frozenset({1})
        cache.put(self.KEY, 3, value, "q1")
        assert cache.advance("db#1", 2, 4, lambda q: True) == (0, 0)
        assert cache.get(self.KEY, 4) is None
        assert cache.advance("db#1", 3, 4, lambda q: True) == (1, 0)
        assert cache.get(self.KEY, 4) is value
        assert cache.get(self.KEY, 3) is None

    def test_other_backends_are_not_looked_at(self):
        cache = ResultCache()
        cache.put(self.KEY, 3, "mine", "q1")
        other = ResultCache.key("query", "f1", "db#2")
        cache.put(other, 3, "theirs", "q1")
        assert cache.advance("db#1", 3, 4, lambda q: False) == (0, 1)
        assert len(cache) == 1
        assert cache.get(other, 3) == "theirs"

    def test_queries_lists_each_live_query_once(self):
        cache = ResultCache()
        cache.put(self.KEY, 3, "a", "q1")
        cache.put(ResultCache.key("ask", "f1", "db#1", extra="h"), 3, True, "q1")
        cache.put(ResultCache.key("query", "f2", "db#1"), 2, "old", "q2")
        assert cache.queries("db#1", 3) == ["q1"]
        assert cache.queries("db#2", 3) == []

    def test_put_replaces_the_slot(self):
        cache = ResultCache(maxsize=2)
        for version in range(50):
            cache.put(self.KEY, version, version, "q1")
        assert len(cache) == 1 and cache.stats()["evictions"] == 0
        assert cache.get(self.KEY, 49) == 49


class TestObservability:
    def test_counters_stats_and_reset(self, session):
        session.query(RATED)
        assert session.add(triple("caribou", "formed_in", "2001"))
        assert session.add(triple("andorra", "NME_rating", "9"))
        registry = session.planner.metrics
        assert registry.counter(CARRIED).value == 1
        assert registry.counter(DROPPED).value == 1
        stats = session.stats()["result_cache"]
        assert (stats["carried"], stats["dropped"]) == (1, 1)
        assert "session_result_cache_carried" in registry.to_prometheus()
        session.reset_stats()
        stats = session.stats()["result_cache"]
        assert (stats["carried"], stats["dropped"]) == (0, 0)

    def test_one_carry_record_per_write(self):
        log = QueryLog()
        session = Session([triple("swim", "recorded_by", "caribou")], obslog=log)
        session.query(RATED)
        session.query("SELECT ?x WHERE { ?x NME_rating ?z }")
        assert session.add(triple("swim", "NME_rating", "2"))
        assert not session.add(triple("swim", "NME_rating", "2"))
        (record,) = log.events("cache.carry")
        assert {k: record[k] for k in ("facts", "probed", "carried", "dropped")} == {
            "facts": 1, "probed": 2, "carried": 0, "dropped": 2,
        }
        lines = [json.dumps(r) for r in log.recent()]
        assert validate_obslog(lines) == []
        del record["probed"]
        assert any("cache.carry" in e for e in validate_obslog([json.dumps(record)]))

    def test_write_span(self, session):
        session.query(RATED)
        tracer = Tracer()
        with tracing(tracer):
            session.add(triple("caribou", "formed_in", "2001"))
        (span,) = [s for s in tracer.walk() if s.name == "session.write"]
        assert span.attrs == {"facts": 1, "probed": 1, "carried": 1, "dropped": 0}


def test_sqlite_file_session_carries_too(tmp_path):
    """The ``rw_sqlite`` shape: an on-disk session, single-triple writes."""
    path = str(tmp_path / "carry.sqlite")
    session = Session([triple("swim", "recorded_by", "caribou")], path=path)
    try:
        assert isinstance(session.database, SQLiteBackend)
        first = session.query(RATED).answers
        assert session.add_triples([("nobody", "NME_rating", "1")]) == 1
        assert session.query(RATED).answers is first
        session.remove(triple("nobody", "NME_rating", "1"))
        assert session.query(RATED).answers is first
    finally:
        session.database.close()
