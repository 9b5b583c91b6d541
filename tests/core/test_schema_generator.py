"""Unit tests for the Result Schema Generator (Figure 3)."""

import pytest

from repro.core import (
    CompositeDegree,
    MaxPathLength,
    TopRProjections,
    WeightThreshold,
    generate_result_schema,
)
from repro.core.schema_generator import SchemaGeneratorStats
from repro.datasets import movies_graph
from repro.graph import SchemaGraph


@pytest.fixture()
def graph():
    return movies_graph()


class TestPaperRunningExample:
    """Q = {"Woody Allen"} with weight >= 0.9 must reproduce Figure 4."""

    def test_result_schema_matches_figure_4(self, graph):
        schema = generate_result_schema(
            graph, ["DIRECTOR", "ACTOR"], WeightThreshold(0.9)
        )
        assert set(schema.relations) == {
            "DIRECTOR", "ACTOR", "CAST", "MOVIE", "GENRE",
        }
        assert set(schema.attributes_of("DIRECTOR")) == {
            "DNAME", "BDATE", "BLOCATION",
        }
        assert set(schema.attributes_of("ACTOR")) == {"ANAME"}
        assert set(schema.attributes_of("MOVIE")) == {"TITLE", "YEAR"}
        assert set(schema.attributes_of("GENRE")) == {"GENRE"}
        assert schema.attributes_of("CAST") == ()

    def test_movie_has_in_degree_two(self, graph):
        schema = generate_result_schema(
            graph, ["DIRECTOR", "ACTOR"], WeightThreshold(0.9)
        )
        degrees = schema.in_degrees()
        assert degrees["MOVIE"] == 2
        assert degrees["CAST"] == 1
        assert degrees["GENRE"] == 1
        assert degrees["DIRECTOR"] == 0
        assert degrees["ACTOR"] == 0

    def test_join_edges_match_figure_4(self, graph):
        schema = generate_result_schema(
            graph, ["DIRECTOR", "ACTOR"], WeightThreshold(0.9)
        )
        edges = {(e.source, e.target) for e in schema.join_edges()}
        assert edges == {
            ("DIRECTOR", "MOVIE"),
            ("ACTOR", "CAST"),
            ("CAST", "MOVIE"),
            ("MOVIE", "GENRE"),
        }

    def test_retrieval_attributes_include_join_plumbing(self, graph):
        schema = generate_result_schema(
            graph, ["DIRECTOR", "ACTOR"], WeightThreshold(0.9)
        )
        # DID is not visible on MOVIE but is needed to drive the join
        assert "DID" in schema.retrieval_attributes("MOVIE")
        assert "DID" not in schema.attributes_of("MOVIE")
        assert set(schema.retrieval_attributes("CAST")) == {"AID", "MID"}


class TestDegreeConstraintBehaviours:
    def test_top_r_counts_distinct_attributes(self, graph):
        schema = generate_result_schema(
            graph, ["DIRECTOR"], TopRProjections(3)
        )
        assert len(schema.projected_attributes) == 3
        # the three heaviest projections reachable from DIRECTOR
        assert ("DIRECTOR", "DNAME") in schema.projected_attributes
        assert ("MOVIE", "TITLE") in schema.projected_attributes

    def test_top_zero_is_empty(self, graph):
        schema = generate_result_schema(graph, ["DIRECTOR"], TopRProjections(0))
        assert schema.is_empty()
        assert schema.relations == ()

    def test_weight_one_keeps_only_weight_one_paths(self, graph):
        schema = generate_result_schema(
            graph, ["DIRECTOR"], WeightThreshold(1.0)
        )
        assert ("DIRECTOR", "DNAME") in schema.projected_attributes
        assert ("MOVIE", "TITLE") in schema.projected_attributes
        assert ("MOVIE", "YEAR") not in schema.projected_attributes

    def test_max_path_length_one_stays_local(self, graph):
        schema = generate_result_schema(
            graph, ["DIRECTOR"], MaxPathLength(1)
        )
        assert set(schema.relations) <= {"DIRECTOR"}
        assert set(schema.attributes_of("DIRECTOR")) == {
            "DID", "DNAME", "BLOCATION", "BDATE",
        }

    def test_length_constraint_is_exact_not_heuristic(self):
        """A light short path must survive a heavy long path's rejection

        (MaxPathLength is non-terminal)."""
        graph = SchemaGraph()
        graph.add_relation("A")
        graph.add_attribute("A", "CHEAP", 0.5)
        graph.add_relation("B")
        graph.add_attribute("B", "FAR", 1.0)
        graph.add_attribute("A", "K", 0.1)
        graph.add_attribute("B", "K", 0.1)
        graph.add_join("A", "B", "K", "K", 1.0)
        schema = generate_result_schema(graph, ["A"], MaxPathLength(1))
        # B.FAR (weight 1.0, length 2) pops first and is rejected;
        # A.CHEAP (weight 0.5, length 1) must still be admitted.
        assert ("A", "CHEAP") in schema.projected_attributes
        assert ("B", "FAR") not in schema.projected_attributes

    def test_composite(self, graph):
        schema = generate_result_schema(
            graph,
            ["DIRECTOR"],
            CompositeDegree(WeightThreshold(0.9), TopRProjections(2)),
        )
        assert len(schema.projected_attributes) == 2
        assert all(
            path.weight >= 0.9 for path in schema.projection_paths
        )


class TestTraversalMechanics:
    def test_unknown_token_relation_raises(self, graph):
        with pytest.raises(ValueError):
            generate_result_schema(graph, ["NOPE"], TopRProjections(1))

    def test_no_token_relations_yields_empty(self, graph):
        schema = generate_result_schema(graph, [], WeightThreshold(0.5))
        assert schema.is_empty()

    def test_duplicate_token_relations_deduplicated(self, graph):
        schema = generate_result_schema(
            graph, ["DIRECTOR", "DIRECTOR"], WeightThreshold(0.9)
        )
        assert schema.origin_relations == ("DIRECTOR",)

    def test_admission_in_decreasing_weight_order(self, graph):
        schema = generate_result_schema(
            graph, ["DIRECTOR", "ACTOR"], WeightThreshold(0.8)
        )
        weights = [path.weight for path in schema.projection_paths]
        assert weights == sorted(weights, reverse=True)

    def test_paths_are_acyclic(self, graph):
        schema = generate_result_schema(
            graph, ["DIRECTOR"], WeightThreshold(0.3)
        )
        for path in schema.projection_paths:
            relations = path.relations()
            assert len(relations) == len(set(relations))

    def test_stats_populated(self, graph):
        stats = SchemaGeneratorStats()
        generate_result_schema(
            graph, ["DIRECTOR"], WeightThreshold(0.9), stats=stats
        )
        assert stats.paths_admitted > 0
        assert stats.paths_popped >= stats.paths_admitted
        assert stats.paths_pushed > 0

    def test_result_relations_subset_of_graph(self, graph):
        schema = generate_result_schema(
            graph, ["GENRE"], WeightThreshold(0.5)
        )
        assert set(schema.relations) <= set(graph.relations)

    def test_lower_threshold_explores_more(self, graph):
        tight = generate_result_schema(
            graph, ["THEATRE"], WeightThreshold(0.9)
        )
        loose = generate_result_schema(
            graph, ["THEATRE"], WeightThreshold(0.5)
        )
        assert set(tight.projected_attributes) <= set(
            loose.projected_attributes
        )
        assert len(loose.projected_attributes) > len(
            tight.projected_attributes
        )


class TestPerformanceGuard:
    def test_large_graph_generates_quickly(self):
        """A 100-relation, 800-attribute graph plans to the full top-50
        projection. Figure 7's 'negligible' claim at this scale — under
        a second — is timed in ``benchmarks/test_wall_time_bounds.py``."""
        from repro.bench import random_schema_graph

        big = random_schema_graph(
            n_relations=100, attrs_per_relation=8, extra_joins=80, seed=0
        )
        schema = generate_result_schema(
            big, [big.relations[0]], TopRProjections(50)
        )
        assert len(schema.projected_attributes) == 50
