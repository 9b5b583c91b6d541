"""Unit tests for the tuple store."""

import pytest

from repro.relational import (
    Column,
    DataType,
    NotNullViolation,
    PrimaryKeyViolation,
    RelationSchema,
    SchemaError,
    TypeMismatchError,
    UnknownTupleError,
)
from repro.relational.relation import Relation


@pytest.fixture()
def movies():
    schema = RelationSchema(
        "MOVIE",
        [
            Column("MID", DataType.INT, nullable=False),
            Column("TITLE", DataType.TEXT),
            Column("YEAR", DataType.INT),
        ],
        primary_key="MID",
    )
    rel = Relation(schema)
    rel.insert({"MID": 1, "TITLE": "Match Point", "YEAR": 2005})
    rel.insert({"MID": 2, "TITLE": "Anything Else", "YEAR": 2003})
    return rel


class TestInsert:
    def test_returns_increasing_tids(self, movies):
        tid = movies.insert({"MID": 3, "TITLE": "X", "YEAR": 2000})
        assert tid == 3

    def test_sequence_input(self, movies):
        tid = movies.insert([4, "Y", 1999])
        assert movies.fetch(tid)["TITLE"] == "Y"

    def test_wrong_arity_sequence(self, movies):
        with pytest.raises(SchemaError):
            movies.insert([5, "Z"])

    def test_unknown_attribute_rejected(self, movies):
        with pytest.raises(SchemaError):
            movies.insert({"MID": 5, "OOPS": 1})

    def test_pk_duplicate_rejected(self, movies):
        with pytest.raises(PrimaryKeyViolation):
            movies.insert({"MID": 1, "TITLE": "dup"})

    def test_pk_null_rejected(self, movies):
        with pytest.raises(NotNullViolation):
            movies.insert({"MID": None, "TITLE": "null key"})

    def test_type_mismatch(self, movies):
        with pytest.raises(TypeMismatchError):
            movies.insert({"MID": "not-an-int-at-all", "TITLE": "t"})

    def test_coercion_applies(self, movies):
        tid = movies.insert({"MID": "7", "TITLE": "coerced", "YEAR": "1987"})
        row = movies.fetch(tid)
        assert row["MID"] == 7
        assert row["YEAR"] == 1987

    def test_missing_attributes_become_null(self, movies):
        tid = movies.insert({"MID": 9, "TITLE": "no year"})
        assert movies.fetch(tid)["YEAR"] is None


class TestDelete:
    def test_delete_removes(self, movies):
        movies.delete(1)
        assert 1 not in movies
        assert len(movies) == 1

    def test_delete_unknown_raises(self, movies):
        with pytest.raises(UnknownTupleError):
            movies.delete(99)

    def test_pk_reusable_after_delete(self, movies):
        movies.delete(1)
        movies.insert({"MID": 1, "TITLE": "again"})
        assert len(movies) == 2

    def test_clear(self, movies):
        movies.clear()
        assert len(movies) == 0
        movies.insert({"MID": 1, "TITLE": "fresh"})
        assert len(movies) == 1


class TestFetchAndScan:
    def test_fetch_full_row(self, movies):
        row = movies.fetch(1)
        assert row.as_dict() == {
            "MID": 1,
            "TITLE": "Match Point",
            "YEAR": 2005,
        }

    def test_fetch_projected(self, movies):
        row = movies.fetch(1, ["TITLE"])
        assert row.attributes == ("TITLE",)
        assert row["TITLE"] == "Match Point"

    def test_fetch_unknown_tid(self, movies):
        with pytest.raises(UnknownTupleError):
            movies.fetch(42)

    def test_fetch_many_skips_missing(self, movies):
        rows = movies.fetch_many([1, 42, 2])
        assert [r.tid for r in rows] == [1, 2]

    def test_fetch_many_limit(self, movies):
        rows = movies.fetch_many([1, 2], limit=1)
        assert len(rows) == 1

    def test_scan_order_and_projection(self, movies):
        titles = [row["TITLE"] for row in movies.scan(["TITLE"])]
        assert titles == ["Match Point", "Anything Else"]


class TestIndexesAndLookups:
    def test_lookup_without_index_scans(self, movies):
        assert movies.lookup("YEAR", 2005) == {1}

    def test_lookup_with_index(self, movies):
        movies.create_index("YEAR")
        assert movies.has_index("YEAR")
        assert movies.lookup("YEAR", 2003) == {2}

    def test_index_maintained_on_insert_delete(self, movies):
        movies.create_index("YEAR")
        tid = movies.insert({"MID": 5, "TITLE": "New", "YEAR": 2003})
        assert movies.lookup("YEAR", 2003) == {2, tid}
        movies.delete(2)
        assert movies.lookup("YEAR", 2003) == {tid}

    def test_lookup_in(self, movies):
        movies.create_index("YEAR")
        assert movies.lookup_in("YEAR", [2003, 2005]) == {1, 2}
        assert movies.lookup_in("YEAR", []) == set()

    def test_lookup_in_without_index(self, movies):
        assert movies.lookup_in("YEAR", [2005]) == {1}

    def test_lookup_pk(self, movies):
        assert movies.lookup_pk(2) == 2
        assert movies.lookup_pk(999) is None

    def test_lookup_pk_without_pk_raises(self):
        rel = Relation(RelationSchema("R", [Column("A", DataType.INT)]))
        with pytest.raises(SchemaError):
            rel.lookup_pk(1)

    def test_distinct_values(self, movies):
        movies.insert({"MID": 3, "TITLE": "Dup year", "YEAR": 2005})
        assert movies.distinct_values("YEAR") == {2003, 2005}
        movies.create_index("YEAR")
        assert movies.distinct_values("YEAR") == {2003, 2005}


class TestCostCharging:
    def test_fetch_charges_tuple_read(self, movies):
        before = movies.meter.tuple_reads
        movies.fetch(1)
        assert movies.meter.tuple_reads == before + 1

    def test_indexed_lookup_charges_index(self, movies):
        movies.create_index("YEAR")
        before = movies.meter.index_lookups
        movies.lookup("YEAR", 2005)
        assert movies.meter.index_lookups == before + 1

    def test_scan_charges_scan_steps(self, movies):
        before = movies.meter.scan_steps
        list(movies.scan())
        assert movies.meter.scan_steps == before + 2

    def test_lookup_in_charges_per_probe_value(self, movies):
        movies.create_index("YEAR")
        before = movies.meter.index_lookups
        movies.lookup_in("YEAR", [2003, 2005, 1990])
        assert movies.meter.index_lookups == before + 3
