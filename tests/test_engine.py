"""Unit tests for the Session API."""

import pytest

from repro.core.atoms import atom
from repro.core.database import Database
from repro.core.mappings import Mapping
from repro.engine import BACKEND_ENV, Result, Session
from repro.exceptions import ParseError
from repro.storage import MemoryBackend, SQLiteBackend
from repro.workloads.families import FIGURE1_QUERY_TEXT, example2_graph

SURFACE = (
    "SELECT ?x ?y ?z WHERE { "
    '?x recorded_by ?y . ?x published "after_2010" '
    "OPTIONAL { ?x NME_rating ?z } }"
)


@pytest.fixture
def session():
    return Session(example2_graph())


class TestConstruction:
    def test_from_graph(self, session):
        assert session.size == 5

    def test_from_database(self):
        s = Session(Database([atom("E", 1, 2)]))
        assert s.size == 1

    def test_from_atoms(self):
        s = Session([atom("E", 1, 2), atom("E", 2, 3)])
        assert s.size == 2

    def test_env_backend_applies_to_raw_data_graphs_included(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "sqlite")
        graph = example2_graph()
        from_graph = Session(graph)
        assert isinstance(from_graph.database, SQLiteBackend)
        assert from_graph.size == len(graph)
        assert isinstance(Session([atom("E", 1, 2)]).database, SQLiteBackend)
        # A backend object the caller hands over is used as it is.
        for handed in (MemoryBackend([atom("E", 1, 2)]), Database([atom("E", 1, 2)])):
            assert Session(handed).database is handed

    @pytest.mark.parametrize("kind", ["sh" "arded", "bogus"])
    def test_env_backend_must_name_a_backend(self, monkeypatch, kind):
        monkeypatch.setenv(BACKEND_ENV, kind)
        with pytest.raises(ValueError, match=r"\(expected one of memory, sqlite\)$"):
            Session(example2_graph())


class TestParsing:
    def test_surface_sparql(self, session):
        p = session.parse(SURFACE)
        assert len(p.tree) == 2

    def test_algebraic_fallback(self, session):
        p = session.parse(FIGURE1_QUERY_TEXT)
        assert len(p.tree) == 3

    def test_cache(self, session):
        a = session.parse(SURFACE)
        b = session.parse(SURFACE)
        assert a is b

    def test_wdpt_passthrough(self, session):
        p = session.parse(SURFACE)
        assert session.parse(p) is p

    def test_unparseable(self, session):
        with pytest.raises(ParseError):
            session.parse("SELECT garbage {{{{")


class TestQuerying:
    def test_query(self, session):
        result = session.query(SURFACE)
        assert len(result) == 2
        assert Mapping({"?x": "Swim", "?y": "Caribou", "?z": "2"}) in result

    def test_iteration_sorted(self, session):
        answers = list(session.query(SURFACE))
        assert answers == sorted(answers, key=repr)

    def test_maximal_semantics(self, session):
        result = session.query_maximal(
            "SELECT ?y ?z WHERE { "
            '?x recorded_by ?y . ?x published "after_2010" '
            "OPTIONAL { ?x NME_rating ?z } }"
        )
        assert result.answers == frozenset([Mapping({"?y": "Caribou", "?z": "2"})])

    def test_decision_procedures(self, session):
        answer = Mapping({"?x": "Swim", "?y": "Caribou", "?z": "2"})
        assert session.ask(SURFACE, answer)
        assert not session.ask(SURFACE, Mapping({"?x": "Swim", "?y": "Caribou"}))
        assert session.is_partial(SURFACE, Mapping({"?y": "Caribou"}))
        p7 = "SELECT ?y ?z WHERE { ?x recorded_by ?y OPTIONAL { ?x NME_rating ?z } }"
        assert session.is_maximal(p7, Mapping({"?y": "Caribou", "?z": "2"}))
        assert not session.is_maximal(p7, Mapping({"?y": "Caribou"}))


class TestResult:
    def test_witness(self, session):
        result = session.query(SURFACE)
        answer = Mapping({"?x": "Our_love", "?y": "Caribou"})
        w = result.witness(answer)
        assert w is not None and w.verify()

    def test_profile(self, session):
        profile = session.query(SURFACE).profile()
        assert profile.tree_size == 2

    def test_to_table(self, session):
        table = session.query(SURFACE).to_table()
        assert "?x" in table and "-" in table  # missing optional rendered

    def test_to_table_limit(self, session):
        table = session.query(SURFACE).to_table(limit=1)
        assert table.count("\n") == 2  # header + rule + 1 row


class TestMutation:
    def test_add_triples_changes_future_queries(self, session):
        before = len(session.query(SURFACE))
        session.add_triples([("New_album", "recorded_by", "Caribou"),
                             ("New_album", "published", "after_2010")])
        after = len(session.query(SURFACE))
        assert after == before + 1

    def test_add_fact(self):
        s = Session([atom("E", 1, 2)])
        assert s.add(atom("E", 2, 3))
        assert not s.add(atom("E", 2, 3))
        assert s.size == 2
