"""Unit tests for the §6 workload builders."""

import random

import pytest

from repro.bench import (
    chain_database,
    chain_graph,
    chain_schema,
    connected_relation_sets,
    random_seed_tids,
    tokens_in_single_relation,
)
from repro.core import WeightThreshold, generate_result_schema
from repro.text import build_index


class TestTokensInSingleRelation:
    def test_tokens_are_exclusive_to_relation(self, paper_db):
        index = build_index(paper_db)
        tokens = tokens_in_single_relation(index, "GENRE")
        assert tokens
        for token in tokens:
            occs = index.lookup_word(token)
            assert {o.relation for o in occs} == {"GENRE"}

    def test_limit(self, synthetic_movies):
        index = build_index(synthetic_movies)
        tokens = tokens_in_single_relation(index, "MOVIE", limit=5)
        assert len(tokens) <= 5


class TestConnectedRelationSets:
    def test_sets_are_connected_and_sized(self, paper_graph):
        sets = connected_relation_sets(paper_graph, size=4, count=10, seed=1)
        assert len(sets) == 10
        adjacency = {name: set() for name in paper_graph.relations}
        for edge in paper_graph.all_join_edges():
            adjacency[edge.source].add(edge.target)
            adjacency[edge.target].add(edge.source)
        for subset in sets:
            assert len(subset) == 4
            for relation in subset:
                assert adjacency[relation] & (set(subset) - {relation})

    def test_deterministic(self, paper_graph):
        a = connected_relation_sets(paper_graph, 4, 5, seed=3)
        b = connected_relation_sets(paper_graph, 4, 5, seed=3)
        assert a == b

    def test_impossible_size_raises(self, paper_graph):
        with pytest.raises(ValueError):
            connected_relation_sets(paper_graph, size=99, count=1)


class TestRandomSeeds:
    def test_sample_size(self, paper_db):
        rng = random.Random(0)
        tids = random_seed_tids(paper_db, "MOVIE", 3, rng)
        assert len(tids) == 3
        assert all(t in paper_db.relation("MOVIE") for t in tids)

    def test_small_relation_returns_all(self, paper_db):
        rng = random.Random(0)
        tids = random_seed_tids(paper_db, "DIRECTOR", 10, rng)
        assert len(tids) == 2


class TestChain:
    def test_schema_shape(self):
        schema = chain_schema(3)
        assert schema.relation_names == ("R1", "R2", "R3")
        assert len(schema.foreign_keys) == 2

    def test_database_fanout(self):
        db = chain_database(3, roots=5, fanout=2, seed=0)
        assert db.cardinalities() == {"R1": 5, "R2": 10, "R3": 20}
        assert db.integrity_violations() == []

    def test_fanout_is_uniform(self):
        db = chain_database(2, roots=4, fanout=3, seed=0)
        children_per_parent = {}
        for row in db.relation("R2").scan(["REF"]):
            children_per_parent[row["REF"]] = (
                children_per_parent.get(row["REF"], 0) + 1
            )
        assert set(children_per_parent.values()) == {3}

    def test_cap_limits_growth(self):
        db = chain_database(
            4, roots=10, fanout=10, max_tuples_per_relation=50
        )
        assert all(n <= 50 for n in db.cardinalities().values())

    def test_graph_supports_full_chain_schema(self):
        graph = chain_graph(4)
        schema = generate_result_schema(graph, ["R1"], WeightThreshold(0.9))
        assert set(schema.relations) == {"R1", "R2", "R3", "R4"}
        assert schema.in_degree("R1") == 0
        assert schema.in_degree("R4") == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            chain_schema(0)
        with pytest.raises(ValueError):
            chain_database(2, roots=0)


class TestRandomSchemaGraph:
    def test_shape(self):
        from repro.bench import random_schema_graph

        graph = random_schema_graph(
            n_relations=12, attrs_per_relation=5, extra_joins=6, seed=3
        )
        assert len(graph.relations) == 12
        for relation in graph.relations:
            assert len(graph.attributes_of(relation)) == 5

    def test_connected(self):
        from repro.bench import random_schema_graph

        graph = random_schema_graph(n_relations=15, seed=1)
        adjacency = {name: set() for name in graph.relations}
        for edge in graph.all_join_edges():
            adjacency[edge.source].add(edge.target)
            adjacency[edge.target].add(edge.source)
        start = graph.relations[0]
        seen, stack = {start}, [start]
        while stack:
            node = stack.pop()
            for neighbour in adjacency[node] - seen:
                seen.add(neighbour)
                stack.append(neighbour)
        assert seen == set(graph.relations)

    def test_deterministic(self):
        from repro.bench import random_schema_graph
        from repro.graph import edge_weight_map

        a = random_schema_graph(n_relations=8, seed=4)
        b = random_schema_graph(n_relations=8, seed=4)
        assert edge_weight_map(a) == edge_weight_map(b)

    def test_bidirectional_joins(self):
        from repro.bench import random_schema_graph

        graph = random_schema_graph(n_relations=6, seed=2)
        for edge in graph.all_join_edges():
            assert graph.has_join(edge.target, edge.source)

    def test_validation(self):
        from repro.bench import random_schema_graph
        import pytest as _pytest

        with _pytest.raises(ValueError):
            random_schema_graph(n_relations=0)
