"""Tests for per-occurrence answers (§5.1 homonyms) and join ordering."""

import pytest

from repro import MaxTotalTuples, MaxTuplesPerRelation, WeightThreshold
from repro.core import (
    JOIN_ORDER_FIFO,
    JOIN_ORDER_WEIGHT,
    generate_result_database,
)
from repro.core.result_schema import ResultSchema
from repro.graph import Path
from repro.graph.schema_graph import JoinEdge, ProjectionEdge
from repro.relational import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    RelationSchema,
)


class TestAskPerOccurrence:
    def test_one_answer_per_homonym(self, paper_engine):
        answers = paper_engine.ask_per_occurrence(
            '"Woody Allen"', degree=WeightThreshold(0.9)
        )
        assert len(answers) == 2
        origins = {a.result_schema.origin_relations for a in answers}
        assert origins == {("ACTOR",), ("DIRECTOR",)}

    def test_answers_are_independent(self, paper_engine):
        actor, director = sorted(
            paper_engine.ask_per_occurrence(
                '"Woody Allen"', degree=WeightThreshold(0.9)
            ),
            key=lambda a: a.result_schema.origin_relations,
        )
        # the actor-rooted answer has no DIRECTOR relation at w>=0.9
        assert "DIRECTOR" not in actor.result_schema.relations
        assert "ACTOR" not in director.result_schema.relations
        # each narrative covers only its own facet
        assert "As an actor" in actor.narrative
        assert "As a director" not in actor.narrative
        assert "As a director" in director.narrative

    def test_movie_in_degree_is_one_per_facet(self, paper_engine):
        answers = paper_engine.ask_per_occurrence(
            '"Woody Allen"', degree=WeightThreshold(0.9)
        )
        for answer in answers:
            assert answer.result_schema.in_degree("MOVIE") == 1

    def test_single_occurrence_token(self, paper_engine):
        answers = paper_engine.ask_per_occurrence(
            '"Scarlett Johansson"', degree=WeightThreshold(0.9)
        )
        assert len(answers) == 1
        assert answers[0].result_schema.origin_relations == ("ACTOR",)

    def test_unmatched_token_yields_no_answers(self, paper_engine):
        assert paper_engine.ask_per_occurrence("zz-none") == []

    def test_cardinality_applies_per_answer(self, paper_engine):
        answers = paper_engine.ask_per_occurrence(
            '"Woody Allen"',
            degree=WeightThreshold(0.9),
            cardinality=MaxTuplesPerRelation(2),
        )
        for answer in answers:
            assert all(n <= 2 for n in answer.cardinalities().values())

    def test_query_time_weights_apply(self, paper_engine):
        """§3.1 query-time overrides work per occurrence too: muting
        the MOVIE→GENRE edge drops GENRE from every facet's schema."""
        base = paper_engine.ask_per_occurrence(
            '"Woody Allen"', degree=WeightThreshold(0.9)
        )
        assert any(
            "GENRE" in a.result_schema.relations for a in base
        )
        muted = paper_engine.ask_per_occurrence(
            '"Woody Allen"',
            degree=WeightThreshold(0.9),
            weights={("join", "MOVIE", "GENRE"): 0.1},
        )
        assert len(muted) == len(base)
        assert all(
            "GENRE" not in a.result_schema.relations for a in muted
        )

    def test_weights_layer_over_profile(self, paper_engine):
        from repro import Profile

        profile = Profile("genre-fan").set_join_weight(
            "MOVIE", "GENRE", 1.0
        )
        answers = paper_engine.ask_per_occurrence(
            '"Woody Allen"',
            degree=WeightThreshold(0.9),
            profile=profile,
            weights={("join", "MOVIE", "GENRE"): 0.1},  # override wins
        )
        assert all(
            "GENRE" not in a.result_schema.relations for a in answers
        )


def _fork_fixture():
    """A: 1 seed tuple; A→B (w 0.6) admitted before A→C (w 0.9).

    Both B and C hold 5 joinable tuples; a total budget of 1 + 3 forces
    the two join orders to pick different relations first.
    """
    schema = DatabaseSchema(
        [
            RelationSchema(
                "A",
                [Column("ID", DataType.INT, nullable=False),
                 Column("VAL", DataType.TEXT)],
                primary_key="ID",
            ),
            RelationSchema(
                "B",
                [Column("ID", DataType.INT, nullable=False),
                 Column("REF", DataType.INT)],
                primary_key="ID",
            ),
            RelationSchema(
                "C",
                [Column("ID", DataType.INT, nullable=False),
                 Column("REF", DataType.INT)],
                primary_key="ID",
            ),
        ]
    )
    db = Database(schema)
    db.insert("A", {"ID": 1, "VAL": "seed"})
    for i in range(5):
        db.insert("B", {"ID": 10 + i, "REF": 1})
        db.insert("C", {"ID": 20 + i, "REF": 1})
    db.create_join_indexes()
    for rel in ("B", "C"):
        db.relation(rel).create_index("REF")

    edge_b = JoinEdge("A", "B", "ID", "REF", 0.6)
    edge_c = JoinEdge("A", "C", "ID", "REF", 0.9)
    # admission order: the B path first (e.g. it was shorter), the
    # heavier C path second — so FIFO != weight order
    result_schema = ResultSchema(
        ("A",),
        (
            Path.seed(edge_b).extend(ProjectionEdge("B", "ID", 1.0)),
            Path.seed(edge_c).extend(ProjectionEdge("C", "ID", 1.0)),
            Path.seed(ProjectionEdge("A", "VAL", 1.0)),
        ),
    )
    return db, result_schema


class TestJoinOrder:
    def test_weight_order_populates_heaviest_first(self):
        db, schema = _fork_fixture()
        answer, report = generate_result_database(
            db, schema, {"A": {1}}, MaxTotalTuples(4),
            join_order=JOIN_ORDER_WEIGHT,
        )
        # 1 seed + 3 budget: the heavy A→C edge wins the budget
        assert len(answer.relation("C")) == 3
        assert len(answer.relation("B")) == 0

    def test_fifo_order_populates_admission_first(self):
        db, schema = _fork_fixture()
        answer, __ = generate_result_database(
            db, schema, {"A": {1}}, MaxTotalTuples(4),
            join_order=JOIN_ORDER_FIFO,
        )
        assert len(answer.relation("B")) == 3
        assert len(answer.relation("C")) == 0

    def test_orders_agree_without_budget_pressure(self):
        db, schema = _fork_fixture()
        by_weight, __ = generate_result_database(
            db, schema, {"A": {1}}, join_order=JOIN_ORDER_WEIGHT
        )
        by_fifo, __ = generate_result_database(
            db, schema, {"A": {1}}, join_order=JOIN_ORDER_FIFO
        )
        assert by_weight.cardinalities() == by_fifo.cardinalities()

    def test_unknown_join_order_rejected(self):
        db, schema = _fork_fixture()
        with pytest.raises(ValueError):
            generate_result_database(
                db, schema, {"A": {1}}, join_order="random"
            )
