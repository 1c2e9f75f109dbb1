"""Unit tests for the RDF/SPARQL frontend."""

import pytest

from repro.core.atoms import atom
from repro.core.mappings import Mapping
from repro.core.terms import Variable
from repro.exceptions import NotWellDesignedError, ParseError
from repro.rdf.algebra import And, Opt, TriplePattern, is_well_designed, triple_patterns
from repro.rdf.graph import RDFGraph
from repro.rdf.parser import parse_pattern, parse_query, tokenize
from repro.rdf.translate import pattern_to_wdpt
from tests.harness.oracles import wdpt_to_pattern


class TestRDFGraph:
    def test_add_and_contains(self):
        g = RDFGraph([("s", "p", "o")])
        assert ("s", "p", "o") in g
        assert not g.add(("s", "p", "o"))
        assert len(g) == 1

    def test_component_sets(self):
        g = RDFGraph([("a", "p", "b"), ("b", "q", "c")])
        assert g.subjects() == {"a", "b"}
        assert g.predicates() == {"p", "q"}
        assert g.objects() == {"b", "c"}

    def test_triples_with(self):
        g = RDFGraph([("a", "p", "b"), ("a", "q", "c")])
        assert set(g.triples_with(subject="a", predicate="p")) == {("a", "p", "b")}

    def test_database_roundtrip(self):
        g = RDFGraph([("a", "p", "b")])
        db = g.to_database()
        assert atom("triple", "a", "p", "b") in db
        assert RDFGraph.from_database(db) == g


class TestAlgebra:
    def test_variables(self):
        p = And(TriplePattern("?x", "p", "?y"), TriplePattern("?y", "q", "?z"))
        assert p.variables() == {Variable("x"), Variable("y"), Variable("z")}

    def test_triple_patterns_order(self):
        t1 = TriplePattern("?x", "p", "?y")
        t2 = TriplePattern("?y", "q", "?z")
        assert list(triple_patterns(And(t1, t2))) == [t1, t2]

    def test_well_designed_positive(self):
        p = Opt(TriplePattern("?x", "p", "?y"), TriplePattern("?x", "q", "?z"))
        assert is_well_designed(p)

    def test_well_designed_negative(self):
        # ?z occurs in the OPT right side and outside, but not in the left.
        bad = And(
            Opt(TriplePattern("?x", "p", "?y"), TriplePattern("?y", "q", "?z")),
            TriplePattern("?z", "r", "?w"),
        )
        assert not is_well_designed(bad)

    def test_nested_well_designed(self):
        p = Opt(
            Opt(TriplePattern("?x", "a", "?y"), TriplePattern("?x", "b", "?z")),
            TriplePattern("?y", "c", "?w"),
        )
        assert is_well_designed(p)


class TestParser:
    def test_tokenize(self):
        assert tokenize('(?x, p, "a b") AND') == ["(", "?x", ",", "p", ",", '"a b"', ")", "AND"]

    def test_parse_triple(self):
        p = parse_pattern("(?x, recorded_by, ?y)")
        assert isinstance(p, TriplePattern)

    def test_parse_nested(self):
        p = parse_pattern("((?x, a, ?y) AND (?x, b, ?z)) OPT (?y, c, ?w)")
        assert isinstance(p, Opt)
        assert isinstance(p.left, And)

    def test_left_associativity(self):
        p = parse_pattern("(?x, a, ?y) OPT (?x, b, ?z) OPT (?x, c, ?w)")
        assert isinstance(p, Opt) and isinstance(p.left, Opt)

    def test_quoted_constants(self):
        p = parse_pattern('(?x, published, "after_2010")')
        assert isinstance(p, TriplePattern)
        from repro.core.terms import Constant

        assert p.object == Constant("after_2010")

    def test_select_projection(self):
        q = parse_query("SELECT ?y WHERE (?x, p, ?y)")
        assert q.free_variables == (Variable("y"),)

    def test_no_projection_is_projection_free(self):
        q = parse_query("(?x, p, ?y)")
        assert q.is_projection_free()

    def test_parse_errors(self):
        for text in ["(?x, p)", "(?x, p, ?y", "(?x, p, ?y) FOO (?a, b, ?c)",
                     "SELECT x WHERE (?x, p, ?y)"]:
            with pytest.raises(ParseError):
                parse_query(text)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_pattern("(?x, p, ?y) (?z, q, ?w)")


class TestTranslate:
    def test_figure1_shape(self):
        from repro.workloads.families import FIGURE1_QUERY_TEXT

        p = parse_query(FIGURE1_QUERY_TEXT)
        assert len(p.tree) == 3
        assert p.tree.children(0) == (1, 2)

    def test_and_of_opts_normalizes(self):
        # (t1 OPT t2) AND t3 ≡ (t1 AND t3) OPT t2
        pat = And(
            Opt(TriplePattern("?x", "a", "?y"), TriplePattern("?x", "b", "?z")),
            TriplePattern("?x", "c", "?w"),
        )
        p = pattern_to_wdpt(pat)
        assert len(p.tree) == 2
        assert len(p.labels[0]) == 2

    def test_non_well_designed_rejected(self):
        bad = And(
            Opt(TriplePattern("?x", "p", "?y"), TriplePattern("?y", "q", "?z")),
            TriplePattern("?z", "r", "?w"),
        )
        with pytest.raises(NotWellDesignedError):
            pattern_to_wdpt(bad)

    def test_roundtrip_semantics(self):
        from repro.wdpt.evaluation import evaluate
        from repro.workloads.families import FIGURE1_QUERY_TEXT, example2_graph

        p = parse_query(FIGURE1_QUERY_TEXT)
        back = wdpt_to_pattern(p)
        p2 = pattern_to_wdpt(back)
        db = example2_graph().to_database()
        assert evaluate(p, db) == evaluate(p2, db)

    def test_wdpt_to_pattern_requires_triples(self):
        from repro.wdpt.wdpt import wdpt_from_nested

        p = wdpt_from_nested(([atom("E", "?x", "?y")], []), free_variables=["?x"])
        with pytest.raises(ValueError):
            wdpt_to_pattern(p)

    def test_evaluation_example1(self):
        from repro.workloads.families import example2_graph, figure1_wdpt

        p = figure1_wdpt()
        db = example2_graph().to_database()
        from repro.wdpt.evaluation import evaluate

        answers = evaluate(p, db)
        assert Mapping({"?x": "Our_love", "?y": "Caribou"}) in answers
