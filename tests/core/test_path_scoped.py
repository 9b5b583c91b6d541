"""Tests for path-scoped driving tuples (§5.2's P_d dependence).

Scenario: two token relations, A and B, both feed into HUB; only A's
admitted path continues beyond HUB into OUT. With the simple (default)
reading, B's tuples that landed in HUB also drive the HUB→OUT join;
path-scoped execution restricts that join to tuples that arrived along
A's path — the paths actually stored in P_d.
"""

import pytest

from repro.core import Unlimited, generate_result_database
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


@pytest.fixture()
def setup():
    schema = DatabaseSchema(
        [
            RelationSchema(
                "A",
                [Column("ID", DataType.INT, nullable=False),
                 Column("HREF", DataType.INT)],
                primary_key="ID",
            ),
            RelationSchema(
                "B",
                [Column("ID", DataType.INT, nullable=False),
                 Column("HREF", DataType.INT)],
                primary_key="ID",
            ),
            RelationSchema(
                "HUB",
                [Column("HID", DataType.INT, nullable=False),
                 Column("NAME", DataType.TEXT)],
                primary_key="HID",
            ),
            RelationSchema(
                "OUT",
                [Column("OID", DataType.INT, nullable=False),
                 Column("HID", DataType.INT),
                 Column("LABEL", DataType.TEXT)],
                primary_key="OID",
            ),
        ]
    )
    db = Database(schema)
    # hub rows 1 and 2; A's seed points at hub 1, B's seed at hub 2
    db.insert("HUB", {"HID": 1, "NAME": "via-A"})
    db.insert("HUB", {"HID": 2, "NAME": "via-B"})
    db.insert("A", {"ID": 10, "HREF": 1})
    db.insert("B", {"ID": 20, "HREF": 2})
    db.insert("OUT", {"OID": 100, "HID": 1, "LABEL": "from hub 1"})
    db.insert("OUT", {"OID": 200, "HID": 2, "LABEL": "from hub 2"})
    db.create_join_indexes()
    db.relation("HUB").create_index("HID")
    db.relation("OUT").create_index("HID")

    a_hub = JoinEdge("A", "HUB", "HREF", "HID", 0.9)
    b_hub = JoinEdge("B", "HUB", "HREF", "HID", 0.9)
    hub_out = JoinEdge("HUB", "OUT", "HID", "HID", 0.8)

    # A's path continues through HUB into OUT; B's path stops at HUB
    result_schema = ResultSchema(
        ("A", "B"),
        (
            Path.seed(a_hub)
            .extend(hub_out)
            .extend(ProjectionEdge("OUT", "LABEL", 1.0)),
            Path.seed(a_hub).extend(ProjectionEdge("HUB", "NAME", 1.0)),
            Path.seed(b_hub).extend(ProjectionEdge("HUB", "NAME", 1.0)),
        ),
    )
    seeds = {"A": {1}, "B": {1}}  # tids of the single A and B rows
    return db, result_schema, seeds


class TestPathScoping:
    def test_default_simple_reading_drags_everything(self, setup):
        db, schema, seeds = setup
        answer, __ = generate_result_database(
            db, schema, seeds, Unlimited(), path_scoped=False
        )
        labels = {
            row["LABEL"] for row in answer.relation("OUT").scan(["LABEL"])
        }
        assert labels == {"from hub 1", "from hub 2"}

    def test_path_scoped_follows_only_pd(self, setup):
        db, schema, seeds = setup
        answer, __ = generate_result_database(
            db, schema, seeds, Unlimited(), path_scoped=True
        )
        labels = {
            row["LABEL"] for row in answer.relation("OUT").scan(["LABEL"])
        }
        # B's hub tuple must not drive the HUB→OUT join: only A's path
        # continues through it in P_d
        assert labels == {"from hub 1"}
        # but both hub tuples are still in the answer (both paths end
        # at HUB's NAME)
        assert len(answer.relation("HUB")) == 2

    def test_scoping_tracks_duplicate_arrivals(self, setup):
        """If B's seed pointed at the same hub as A's, that shared hub

        tuple gains both arrival tags and does drive HUB→OUT."""
        db, schema, __ = setup
        shared = Database(db.schema)
        shared.insert("HUB", {"HID": 1, "NAME": "shared"})
        shared.insert("A", {"ID": 10, "HREF": 1})
        shared.insert("B", {"ID": 20, "HREF": 1})
        shared.insert("OUT", {"OID": 100, "HID": 1, "LABEL": "reached"})
        shared.create_join_indexes()
        shared.relation("OUT").create_index("HID")
        answer, __ = generate_result_database(
            shared, schema, {"A": {1}, "B": {1}}, Unlimited(),
            path_scoped=True,
        )
        labels = {
            row["LABEL"] for row in answer.relation("OUT").scan(["LABEL"])
        }
        assert labels == {"reached"}

    def test_engine_exposes_flag(self, paper_engine):
        from repro import WeightThreshold

        scoped = paper_engine.ask(
            '"Woody Allen"',
            degree=WeightThreshold(0.9),
            path_scoped=True,
        )
        plain = paper_engine.ask(
            '"Woody Allen"', degree=WeightThreshold(0.9)
        )
        # in the running example every admitted path continues through
        # every executed edge, so the two modes agree
        assert scoped.cardinalities() == plain.cardinalities()
