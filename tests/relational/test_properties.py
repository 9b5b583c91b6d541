"""Property-based tests (hypothesis) for the relational substrate."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    ForeignKey,
    RelationSchema,
)
from repro.relational.csvio import load_database, save_database
from repro.relational.relation import Relation


def _schema():
    return RelationSchema(
        "R",
        [
            Column("K", DataType.INT, nullable=False),
            Column("V", DataType.TEXT),
            Column("N", DataType.INT),
        ],
        primary_key="K",
    )


texts = st.text(alphabet=string.ascii_letters + " ,.'", max_size=20)
rows = st.lists(
    st.tuples(texts, st.integers(-50, 50) | st.none()),
    max_size=40,
)


class TestIndexScanEquivalence:
    @given(data=rows, probe=st.integers(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_indexed_lookup_equals_scan(self, data, probe):
        """An index probe returns exactly what a full scan filters."""
        rel = Relation(_schema())
        for key, (text, number) in enumerate(data):
            rel.insert({"K": key, "V": text, "N": number})
        scanned = {row.tid for row in rel.scan() if row["N"] == probe}
        assert rel.lookup("N", probe) == scanned  # scan path
        rel.create_index("N")
        assert rel.lookup("N", probe) == scanned  # index path

    @given(data=rows)
    @settings(max_examples=40, deadline=None)
    def test_insert_delete_keeps_index_consistent(self, data):
        rel = Relation(_schema())
        rel.create_index("N")
        tids = []
        for key, (text, number) in enumerate(data):
            tids.append(rel.insert({"K": key, "V": text, "N": number}))
        # delete every other tuple
        for tid in tids[::2]:
            rel.delete(tid)
        for row in rel.scan():
            assert row.tid in rel.lookup("N", row["N"])
        alive = set(rel.tids())
        for number in range(-50, 51):
            assert rel.lookup("N", number) <= alive


class TestCsvRoundtripProperty:
    @given(data=rows)
    @settings(max_examples=25, deadline=None)
    def test_database_roundtrips(self, data, tmp_path_factory):
        schema = DatabaseSchema([_schema()])
        db = Database(schema)
        for key, (text, number) in enumerate(data):
            db.insert("R", {"K": key, "V": text, "N": number})
        path = tmp_path_factory.mktemp("csv")
        back = load_database(save_database(db, path))
        original = sorted(row.values for row in db.relation("R").scan())
        loaded = sorted(row.values for row in back.relation("R").scan())
        # NULL text and empty text both serialize to ""; normalize
        def norm(values):
            return [
                tuple("" if v is None else v for v in row) for row in values
            ]

        assert norm(original) == norm(loaded)


class TestForeignKeyInvariant:
    @given(
        parents=st.sets(st.integers(0, 20), min_size=1, max_size=10),
        children=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 25)), max_size=30
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_enforced_database_never_dangles(self, parents, children):
        schema = DatabaseSchema(
            [
                RelationSchema(
                    "P",
                    [Column("PID", DataType.INT, nullable=False)],
                    primary_key="PID",
                ),
                RelationSchema(
                    "C",
                    [
                        Column("CID", DataType.INT, nullable=False),
                        Column("PID", DataType.INT),
                    ],
                    primary_key="CID",
                ),
            ],
            [ForeignKey("C", "PID", "P", "PID")],
        )
        db = Database(schema)
        for pid in parents:
            db.insert("P", {"PID": pid})
        inserted = 0
        for cid, pid in dict(children).items():
            try:
                db.insert("C", {"CID": cid, "PID": pid})
                inserted += 1
            except Exception:
                pass
        assert db.integrity_violations() == []
        assert len(db.relation("C")) == inserted
