"""Unit tests for Database: FK enforcement, integrity, bulk load."""

import gc
import weakref

import pytest

from repro.relational import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    ForeignKey,
    ForeignKeyViolation,
    RelationSchema,
    SchemaError,
)


class TestInsertWithFks:
    def test_child_requires_parent(self, tiny_schema):
        db = Database(tiny_schema)
        with pytest.raises(ForeignKeyViolation):
            db.insert("CHILD", {"CID": 1, "PID": 99, "LABEL": "orphan"})
        # failed insert must not leave a residue
        assert len(db.relation("CHILD")) == 0

    def test_null_fk_allowed(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("CHILD", {"CID": 1, "PID": None, "LABEL": "rootless"})
        assert len(db.relation("CHILD")) == 1

    def test_enforcement_can_be_disabled(self, tiny_schema):
        db = Database(tiny_schema, enforce_foreign_keys=False)
        db.insert("CHILD", {"CID": 1, "PID": 99, "LABEL": "orphan"})
        assert len(db.relation("CHILD")) == 1

    def test_fk_against_non_pk_target(self):
        schema = DatabaseSchema(
            [
                RelationSchema(
                    "A",
                    [Column("X", DataType.INT)],  # no primary key
                ),
                RelationSchema(
                    "B",
                    [Column("Y", DataType.INT)],
                ),
            ],
            [ForeignKey("B", "Y", "A", "X")],
        )
        db = Database(schema)
        db.insert("A", {"X": 1})
        db.insert("B", {"Y": 1})
        with pytest.raises(ForeignKeyViolation):
            db.insert("B", {"Y": 2})


class TestIntegrity:
    def test_clean_database(self, tiny_db):
        assert tiny_db.integrity_violations() == []

    def test_dangling_reference_detected(self, tiny_schema):
        db = Database(tiny_schema, enforce_foreign_keys=False)
        db.insert("CHILD", {"CID": 1, "PID": 5, "LABEL": "dangling"})
        problems = db.integrity_violations()
        assert len(problems) == 1
        assert "dangling" in problems[0]
        with pytest.raises(ForeignKeyViolation):
            db.check_integrity()


class TestAccessors:
    def test_getitem_and_contains(self, tiny_db):
        assert tiny_db["PARENT"].name == "PARENT"
        assert "CHILD" in tiny_db
        assert "NOPE" not in tiny_db
        with pytest.raises(SchemaError):
            tiny_db.relation("NOPE")

    def test_cardinalities(self, tiny_db):
        assert tiny_db.cardinalities() == {"PARENT": 2, "CHILD": 3}
        assert tiny_db.total_tuples() == 5

    def test_iteration(self, tiny_db):
        assert [rel.name for rel in tiny_db] == ["PARENT", "CHILD"]


class TestLifetime:
    def test_freed_without_the_cycle_collector(self, tiny_schema):
        """Every précis answer is a database: dropping the last reference
        frees it at once, and a write through a relation still moves
        the database's epoch."""
        db = Database(tiny_schema)
        before = db.data_epoch
        db.relation("PARENT").insert({"PID": 1, "NAME": "x"})
        assert db.data_epoch == before + 1
        ref = weakref.ref(db)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del db
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestJoinIndexes:
    def test_create_join_indexes(self, tiny_schema):
        db = Database(tiny_schema)
        db.insert("PARENT", {"PID": 1, "NAME": "x"})
        db.create_join_indexes()
        assert db.relation("CHILD").has_index("PID")
        assert db.relation("PARENT").has_index("PID")
        # idempotent
        db.create_join_indexes()


class TestFromRows:
    def test_loads_parents_before_children(self, tiny_schema):
        db = Database.from_rows(
            tiny_schema,
            {
                # declaration order is child-first; loader must reorder
                "CHILD": [{"CID": 1, "PID": 1, "LABEL": "c"}],
                "PARENT": [{"PID": 1, "NAME": "p"}],
            },
        )
        assert db.total_tuples() == 2
        assert db.integrity_violations() == []

    def test_bad_data_detected_at_end(self, tiny_schema):
        with pytest.raises(ForeignKeyViolation):
            Database.from_rows(
                tiny_schema,
                {"CHILD": [{"CID": 1, "PID": 9, "LABEL": "x"}]},
            )

    def test_enforcement_off_allows_orphans(self, tiny_schema):
        db = Database.from_rows(
            tiny_schema,
            {"CHILD": [{"CID": 1, "PID": 9, "LABEL": "x"}]},
            enforce_foreign_keys=False,
        )
        assert db.total_tuples() == 1

    def test_cyclic_fk_schemas_load(self):
        schema = DatabaseSchema(
            [
                RelationSchema(
                    "A",
                    [
                        Column("AID", DataType.INT, nullable=False),
                        Column("BREF", DataType.INT),
                    ],
                    primary_key="AID",
                ),
                RelationSchema(
                    "B",
                    [
                        Column("BID", DataType.INT, nullable=False),
                        Column("AREF", DataType.INT),
                    ],
                    primary_key="BID",
                ),
            ],
            [
                ForeignKey("A", "BREF", "B", "BID"),
                ForeignKey("B", "AREF", "A", "AID"),
            ],
        )
        db = Database.from_rows(
            schema,
            {
                "A": [{"AID": 1, "BREF": 1}],
                "B": [{"BID": 1, "AREF": 1}],
            },
        )
        assert db.integrity_violations() == []
