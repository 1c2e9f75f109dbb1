"""Unit tests for workload generators and the paper families."""

import pytest

from repro.core.mappings import Mapping
from repro.hypergraphs.hypergraph import hypergraph_of_cq
from repro.hypergraphs.gyo import is_alpha_acyclic
from repro.hypergraphs.treewidth import treewidth_exact
from repro.wdpt.classes import interface_width, is_globally_in_tw
from repro.workloads.datasets import company_directory, music_catalog
from repro.workloads.families import (
    example5_theta,
    figure2_family,
    prop2_family,
    three_colorability_instance,
)
from repro.workloads.generators import (
    clique_cq,
    cycle_cq,
    grid_cq,
    path_cq,
    random_database,
    random_graph_database,
    random_wdpt,
    star_cq,
)
from tests.harness.generators import complete_graph_edges, odd_cycle_edges, random_cq


class TestGenerators:
    def test_random_database_deterministic(self):
        assert random_database(20, seed=5) == random_database(20, seed=5)
        assert random_database(20, seed=5) != random_database(20, seed=6)

    def test_random_database_size(self):
        assert len(random_database(30, domain_size=10)) == 30

    def test_random_graph_database(self):
        db = random_graph_database(5, 10, seed=1)
        assert len(db) == 10

    def test_cq_families_widths(self):
        assert treewidth_exact(hypergraph_of_cq(path_cq(4))) == 1
        assert treewidth_exact(hypergraph_of_cq(cycle_cq(5))) == 2
        assert treewidth_exact(hypergraph_of_cq(clique_cq(5))) == 4
        assert treewidth_exact(hypergraph_of_cq(grid_cq(3, 3))) == 3
        assert treewidth_exact(hypergraph_of_cq(star_cq(5))) == 1

    def test_random_cq_shape(self):
        q = random_cq(4, 5, n_free=2, seed=3)
        assert len(q.free_variables) <= 2

    def test_random_wdpt_well_designed_and_deterministic(self):
        p1 = random_wdpt(depth=2, fanout=2, seed=9)
        p2 = random_wdpt(depth=2, fanout=2, seed=9)
        assert p1 == p2  # construction validated well-designedness already

    def test_random_wdpt_interface_knob(self):
        p = random_wdpt(depth=1, fanout=3, shared_vars_per_child=2,
                        fresh_vars_per_node=3, seed=0)
        assert interface_width(p) <= 2 * 3  # at most shared × fanout


class TestFigure2Family:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_sizes(self, n):
        p1, p2 = figure2_family(n, k=2)
        assert p1.size() <= 4 * (n + 3) ** 2 + 10 * n + 10   # O(n²)
        assert p2.size() >= n * 2 ** n                        # Ω(2ⁿ)

    def test_classes(self):
        p1, p2 = figure2_family(3, k=2)
        assert is_globally_in_tw(p2, 2)
        assert not is_globally_in_tw(p1, 2)

    def test_free_variables_match(self):
        p1, p2 = figure2_family(2, k=2)
        assert p1.free_variables == p2.free_variables

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            figure2_family(0)


class TestProp2Family:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_globally_tractable_unbounded_interface(self, n):
        p = prop2_family(n)
        assert is_globally_in_tw(p, 1)
        assert interface_width(p) == n


class TestThreeColorability:
    def test_instance_shape(self):
        db, p, h = three_colorability_instance(3, complete_graph_edges(3))
        assert len(db) == 3
        assert len(p.tree) == 1 + 3 * 3
        assert h == Mapping({"?x": 1})

    def test_globally_tractable(self):
        _, p, _ = three_colorability_instance(4, complete_graph_edges(4))
        assert is_globally_in_tw(p, 1)

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            three_colorability_instance(2, [(0, 5)])

    def test_cycle_helpers(self):
        assert len(odd_cycle_edges(5)) == 5
        assert len(complete_graph_edges(4)) == 6


class TestExample5:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_acyclic_but_wide(self, n):
        q = example5_theta(n)
        H = hypergraph_of_cq(q)
        assert is_alpha_acyclic(H)
        assert treewidth_exact(H) == n - 1

    def test_bad_n(self):
        with pytest.raises(ValueError):
            example5_theta(1)


class TestDatasets:
    def test_music_catalog_mandatory_triples(self):
        g = music_catalog(n_bands=4, records_per_band=2, seed=1)
        assert len(list(g.triples_with(predicate="recorded_by"))) == 8
        assert len(list(g.triples_with(predicate="published"))) == 8

    def test_music_catalog_optional_fractions(self):
        none = music_catalog(n_bands=10, rating_fraction=0.0, formed_in_fraction=0.0, seed=2)
        full = music_catalog(n_bands=10, rating_fraction=1.0, formed_in_fraction=1.0, seed=2)
        assert not list(none.triples_with(predicate="NME_rating"))
        assert len(list(full.triples_with(predicate="formed_in"))) == 10

    def test_company_directory_schema(self):
        db = company_directory(n_departments=2, employees_per_department=3, seed=3)
        assert db.schema.arity("works_in") == 2
        assert len(db.facts("works_in")) == 6
        assert len(db.facts("dept_head")) == 2

    def test_company_optional_fractions(self):
        db = company_directory(phone_fraction=0.0, seed=4)
        assert not db.facts("phone")
