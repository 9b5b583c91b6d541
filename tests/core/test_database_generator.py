"""Unit tests for the Result Database Generator (Figure 5)."""

import sys
import threading

import pytest

from repro.core import (
    MaxTotalTuples,
    MaxTuplesPerRelation,
    STRATEGY_NAIVE,
    STRATEGY_ROUND_ROBIN,
    Unlimited,
    WeightThreshold,
    generate_result_database,
    generate_result_schema,
)
from repro.datasets import movies_graph, paper_instance
from repro.text import build_index


@pytest.fixture()
def db():
    return paper_instance()


@pytest.fixture()
def graph():
    return movies_graph()


@pytest.fixture()
def schema(graph):
    return generate_result_schema(
        graph, ["DIRECTOR", "ACTOR"], WeightThreshold(0.9)
    )


def _woody_seeds(db):
    index = build_index(db)
    seeds = {}
    for occ in index.lookup_token("Woody Allen"):
        seeds.setdefault(occ.relation, set()).update(occ.tids)
    return seeds


class TestSeeding:
    def test_seed_tuples_present(self, db, schema):
        answer, report = generate_result_database(
            db, schema, _woody_seeds(db), Unlimited()
        )
        assert report.seed_counts == {"DIRECTOR": 1, "ACTOR": 1}
        assert len(answer.relation("DIRECTOR")) == 1

    def test_seeds_outside_schema_ignored(self, db, schema):
        seeds = _woody_seeds(db)
        seeds["THEATRE"] = {1}  # THEATRE not in the result schema
        answer, report = generate_result_database(db, schema, seeds)
        assert "THEATRE" not in answer
        assert "THEATRE" not in report.seed_counts

    def test_seed_cardinality_bounded(self, db, graph):
        schema = generate_result_schema(graph, ["MOVIE"], WeightThreshold(0.9))
        index = build_index(db)
        tids = {
            occ.relation: set(occ.tids)
            for occ in index.lookup_word("the")  # several movie titles
        }
        answer, __ = generate_result_database(
            db, schema, tids, MaxTuplesPerRelation(1)
        )
        assert len(answer.relation("MOVIE")) == 1


class TestJoinWalk:
    def test_unconstrained_walk_reaches_all_relations(self, db, schema):
        answer, report = generate_result_database(
            db, schema, _woody_seeds(db), Unlimited()
        )
        assert answer.cardinalities() == {
            "DIRECTOR": 1,
            "ACTOR": 1,
            "MOVIE": 5,
            "CAST": 2,
            "GENRE": 8,
        }
        assert report.joins_executed == 4
        assert not report.skipped_edges

    def test_join_order_by_decreasing_weight_with_postponement(
        self, db, schema
    ):
        __, report = generate_result_database(
            db, schema, _woody_seeds(db), Unlimited()
        )
        order = [(e.edge.source, e.edge.target) for e in report.executions]
        # MOVIE -> GENRE must come after BOTH arrivals at MOVIE
        movie_arrivals = [
            order.index(("DIRECTOR", "MOVIE")),
            order.index(("CAST", "MOVIE")),
        ]
        assert order.index(("MOVIE", "GENRE")) > max(movie_arrivals)
        # CAST -> MOVIE must come after ACTOR -> CAST populated CAST
        assert order.index(("CAST", "MOVIE")) > order.index(("ACTOR", "CAST"))

    def test_duplicates_removed_at_shared_relation(self, db, graph):
        """Hollywood Ending arrives at MOVIE both via DIRECTOR and via

        CAST; it must appear once."""
        schema = generate_result_schema(
            graph, ["DIRECTOR", "ACTOR"], WeightThreshold(0.9)
        )
        answer, __ = generate_result_database(
            db, schema, _woody_seeds(db), Unlimited()
        )
        titles = [
            row["TITLE"] for row in answer.relation("MOVIE").scan(["TITLE"])
        ]
        assert len(titles) == len(set(titles))

    def test_paper_cardinality_example(self, db, schema):
        """'Up to three tuples per relation' — the §5.2 running example."""
        answer, report = generate_result_database(
            db, schema, _woody_seeds(db), MaxTuplesPerRelation(3)
        )
        cards = answer.cardinalities()
        assert cards["MOVIE"] == 3
        assert cards["GENRE"] == 3
        assert cards["DIRECTOR"] == 1
        titles = {
            row["TITLE"] for row in answer.relation("MOVIE").scan(["TITLE"])
        }
        assert titles == {
            "Match Point", "Melinda and Melinda", "Anything Else",
        }

    def test_max_total_stops_walk(self, db, schema):
        answer, report = generate_result_database(
            db, schema, _woody_seeds(db), MaxTotalTuples(2)
        )
        assert answer.total_tuples() == 2  # just the two seeds
        assert report.stopped_by_cardinality

    @pytest.mark.parametrize("total", [16, 17])
    def test_budget_used_up_by_the_last_join_stops_walk(
        self, db, schema, total
    ):
        """The walk checks the budget once more after its last edge: a
        budget the last join uses up is reported like one used up
        before it (the unconstrained answer holds 17 tuples)."""
        answer, report = generate_result_database(
            db, schema, _woody_seeds(db), MaxTotalTuples(total)
        )
        assert report.joins_executed == 4
        assert not report.skipped_edges
        assert answer.total_tuples() == total
        assert report.stopped_by_cardinality

    def test_executions_follow_the_stored_walk(self, db, schema):
        __, report = generate_result_database(
            db, schema, _woody_seeds(db), Unlimited()
        )
        assert tuple(e.edge for e in report.executions) == schema.walk

    def test_tuples_subset_of_source(self, db, schema):
        answer, __ = generate_result_database(
            db, schema, _woody_seeds(db), Unlimited()
        )
        for relation in answer.relation_names:
            source = db.relation(relation)
            src_rows = {
                tuple(row.values)
                for row in source.scan(
                    answer.relation(relation).schema.attribute_names
                )
            }
            for row in answer.relation(relation).scan():
                assert tuple(row.values) in src_rows

    def test_tid_maps_point_back_to_source(self, db, schema):
        answer, report = generate_result_database(
            db, schema, _woody_seeds(db), Unlimited()
        )
        for relation, tid_map in report.tid_maps.items():
            for source_tid, answer_tid in tid_map.items():
                source_row = db.relation(relation).fetch(
                    source_tid,
                    answer.relation(relation).schema.attribute_names,
                )
                answer_row = answer.relation(relation).fetch(answer_tid)
                assert tuple(source_row.values) == tuple(answer_row.values)


class TestStrategies:
    def test_naive_may_dangle_on_to_n_joins(self, db, schema):
        answer, __ = generate_result_database(
            db,
            schema,
            _woody_seeds(db),
            MaxTuplesPerRelation(3),
            strategy=STRATEGY_NAIVE,
        )
        # NaïveQ keeps an arbitrary (tid-order) prefix of GENRE tuples
        genre_mids = {
            row["MID"] for row in answer.relation("GENRE").scan(["MID"])
        }
        # the tid-order prefix covers movies 1 and 2 only; movie 3 is
        # starved of genres — exactly the NaïveQ risk the paper describes
        assert genre_mids == {1, 2}
        assert 3 not in genre_mids

    def test_round_robin_spreads_across_movies(self, db, schema):
        answer, __ = generate_result_database(
            db,
            schema,
            _woody_seeds(db),
            MaxTuplesPerRelation(3),
            strategy=STRATEGY_ROUND_ROBIN,
        )
        genre_mids = {
            row["MID"] for row in answer.relation("GENRE").scan(["MID"])
        }
        assert genre_mids == {1, 2, 3}  # one genre per movie

    def test_auto_uses_round_robin_only_for_to_n(self, db, schema):
        __, report = generate_result_database(
            db, schema, _woody_seeds(db), MaxTuplesPerRelation(3),
            strategy="auto",
        )
        strategies = {
            (e.edge.source, e.edge.target): e.strategy
            for e in report.executions
        }
        assert strategies[("DIRECTOR", "MOVIE")] == STRATEGY_ROUND_ROBIN
        assert strategies[("MOVIE", "GENRE")] == STRATEGY_ROUND_ROBIN
        if ("CAST", "MOVIE") in strategies:  # to-1: MOVIE.MID is the pk
            assert strategies[("CAST", "MOVIE")] == STRATEGY_NAIVE

    def test_unknown_strategy_rejected(self, db, schema):
        with pytest.raises(ValueError):
            generate_result_database(
                db, schema, {}, Unlimited(), strategy="bogus"
            )


class TestAnswerShape:
    def test_answer_schema_is_projection_of_source(self, db, schema):
        answer, __ = generate_result_database(db, schema, _woody_seeds(db))
        for relation in answer.relation_names:
            attrs = set(answer.relation(relation).schema.attribute_names)
            source_attrs = set(
                db.relation(relation).schema.attribute_names
            )
            assert attrs <= source_attrs
            assert attrs == set(schema.retrieval_attributes(relation))

    def test_answer_declares_only_real_foreign_keys(self, db, schema):
        """Of the four G' edges only CAST→MOVIE follows an actual

        foreign-key direction; the others are reverse joins and must not
        become constraints of the answer."""
        answer, __ = generate_result_database(db, schema, _woody_seeds(db))
        fk_pairs = {
            (fk.source, fk.target) for fk in answer.schema.foreign_keys
        }
        assert fk_pairs == {("CAST", "MOVIE")}

    def test_empty_seeds_empty_answer(self, db, schema):
        answer, report = generate_result_database(db, schema, {})
        assert answer.total_tuples() == 0
        assert report.joins_executed == 0

    def test_answer_schema_built_once_per_source_schema(self, db, schema):
        first, __ = generate_result_database(db, schema, _woody_seeds(db))
        second, __ = generate_result_database(db, schema, _woody_seeds(db))
        assert second.schema is first.schema
        assert second is not first
        assert schema.answer_schema(db.schema) is first.schema
        # another source database gets an answer schema of its own
        other = paper_instance()
        rebuilt = schema.answer_schema(other.schema)
        assert rebuilt is not first.schema
        assert [
            (rs.name, rs.attribute_names) for rs in rebuilt.relations
        ] == [(rs.name, rs.attribute_names) for rs in first.schema.relations]
        assert rebuilt.foreign_keys == first.schema.foreign_keys

    def test_shared_schema_under_threads_keeps_each_source(self, schema):
        """One result schema shared by threads generating over two
        source databases at once: every answer's columns are projected
        from its own source's schema (a torn (source, schema) pair in
        the kept answer schema would hand one source the other's)."""
        sources = [paper_instance(), paper_instance()]
        seeds = [_woody_seeds(db) for db in sources]
        mismatches = []

        def generate(i: int) -> None:
            db = sources[i % 2]
            for __ in range(60):
                answer, __ = generate_result_database(db, schema, seeds[i % 2])
                for rs in answer.schema.relations:
                    own = db.schema.relation(rs.name)
                    if any(c is not own.column(c.name) for c in rs.columns):
                        mismatches.append((i, rs.name))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=generate, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches
