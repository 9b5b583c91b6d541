"""Larger-scale smoke tests: invariants hold and the work per query
stays bounded by the answer, not the database (the wall-time bound on
the same query lives in ``benchmarks/test_wall_time_bounds.py``)."""

import pytest

from repro import MaxTuplesPerRelation, PrecisEngine, WeightThreshold
from repro.bench import chain_database, chain_graph
from repro.core import (
    MaxTotalTuples,
    generate_result_database,
    generate_result_schema,
)
from repro.datasets import generate_movies_database, movies_graph


class TestBigMovies:
    @pytest.fixture(scope="class")
    def engine(self):
        db = generate_movies_database(n_movies=2000, seed=99)
        return PrecisEngine(db, graph=movies_graph())

    def test_database_shape(self, engine):
        cards = engine.db.cardinalities()
        assert cards["MOVIE"] == 2000
        assert cards["CAST"] > 4000

    def test_query_latency_bounded(self, engine):
        name = next(
            row["DNAME"]
            for row in engine.db.relation("DIRECTOR").scan(["DNAME"])
        )
        answer = engine.ask(
            f'"{name}"',
            degree=WeightThreshold(0.9),
            cardinality=MaxTuplesPerRelation(10),
        )
        assert answer.found
        assert all(n <= 10 for n in answer.cardinalities().values())
        # the modeled retrieval cost is capped by the answer, however
        # large the source database grows
        cap = 10 * len(answer.result_schema.relations)
        assert answer.cost.tuple_reads <= cap < engine.db.total_tuples()

    def test_answer_invariants_at_scale(self, engine):
        title = next(
            row["TITLE"] for row in engine.db.relation("MOVIE").scan(["TITLE"])
        )
        answer = engine.ask(
            f'"{title}"',
            degree=WeightThreshold(0.7),
            cardinality=MaxTuplesPerRelation(8),
        )
        assert all(n <= 8 for n in answer.cardinalities().values())
        for relation in answer.database.relation_names:
            attrs = answer.database.relation(relation).schema.attribute_names
            source = {
                tuple(r.values)
                for r in engine.db.relation(relation).scan(attrs)
            }
            for row in answer.database.relation(relation).scan():
                assert tuple(row.values) in source


class TestDeepChain:
    def test_ten_level_chain_walks_fully(self):
        db = chain_database(
            10, roots=20, fanout=2, seed=0, max_tuples_per_relation=500
        )
        schema = generate_result_schema(
            chain_graph(10), ["R1"], WeightThreshold(0.9)
        )
        assert len(schema.relations) == 10
        seeds = {"R1": set(list(db.relation("R1").tids())[:5])}
        answer, report = generate_result_database(
            db, schema, seeds, MaxTotalTuples(200)
        )
        assert answer.total_tuples() <= 200
        assert report.joins_executed >= 1
        # budget-ordered: earlier (heavier, nearer) levels fill first
        cards = answer.cardinalities()
        assert cards["R2"] >= 1
