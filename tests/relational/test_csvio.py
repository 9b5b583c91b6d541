"""Unit tests for CSV round-tripping."""

import csv

import pytest

from repro.relational import SchemaError
from repro.relational.csvio import (
    load_database,
    save_database,
    schema_from_dict,
    schema_to_dict,
)


class TestSchemaSerialization:
    def test_roundtrip(self, tiny_schema):
        data = schema_to_dict(tiny_schema)
        back = schema_from_dict(data)
        assert back.relation_names == tiny_schema.relation_names
        for name in tiny_schema.relation_names:
            assert back.relation(name) == tiny_schema.relation(name)
        assert back.foreign_keys == tiny_schema.foreign_keys

    def test_malformed_manifest(self):
        with pytest.raises(SchemaError):
            schema_from_dict({"relations": [{"name": "R"}]})


class TestDatabaseRoundtrip:
    def test_roundtrip(self, tiny_db, tmp_path):
        path = save_database(tiny_db, tmp_path / "out")
        back = load_database(path)
        assert back.cardinalities() == tiny_db.cardinalities()
        originals = sorted(
            row.values for row in tiny_db.relation("CHILD").scan()
        )
        loaded = sorted(row.values for row in back.relation("CHILD").scan())
        assert originals == loaded

    def test_roundtrip_preserves_nulls(self, tiny_db, tmp_path):
        tiny_db.insert("CHILD", {"CID": 99, "PID": None, "LABEL": None})
        back = load_database(save_database(tiny_db, tmp_path / "n"))
        rows = [
            row
            for row in back.relation("CHILD").scan()
            if row["CID"] == 99
        ]
        assert rows[0]["PID"] is None
        assert rows[0]["LABEL"] is None

    def test_empty_text_distinct_from_null(self, tiny_db, tmp_path):
        """The dtype round-trip fix: '' and NULL are different TEXT values."""
        tiny_db.insert("CHILD", {"CID": 90, "PID": 1, "LABEL": ""})
        tiny_db.insert("CHILD", {"CID": 91, "PID": 1, "LABEL": None})
        back = load_database(save_database(tiny_db, tmp_path / "e"))
        rows = {
            row["CID"]: row["LABEL"]
            for row in back.relation("CHILD").scan()
        }
        assert rows[90] == ""
        assert rows[91] is None

    def test_literal_null_marker_text_survives(self, tiny_db, tmp_path):
        tiny_db.insert("CHILD", {"CID": 92, "PID": 1, "LABEL": "\\N"})
        back = load_database(save_database(tiny_db, tmp_path / "m"))
        rows = {
            row["CID"]: row["LABEL"]
            for row in back.relation("CHILD").scan()
        }
        assert rows[92] == "\\N"

    def test_roundtrip_onto_each_backend(self, tiny_db, tmp_path, backend):
        back = load_database(
            save_database(tiny_db, tmp_path / "d"), backend=backend
        )
        assert back.backend_name == backend
        assert back.cardinalities() == tiny_db.cardinalities()
        originals = sorted(
            row.values for row in tiny_db.relation("CHILD").scan()
        )
        loaded = sorted(row.values for row in back.relation("CHILD").scan())
        assert originals == loaded
        back.close()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(SchemaError):
            load_database(tmp_path)

    def test_missing_relation_file_loads_empty(self, tiny_db, tmp_path):
        path = save_database(tiny_db, tmp_path / "partial")
        (path / "CHILD.csv").unlink()
        back = load_database(path, enforce_foreign_keys=False)
        assert len(back.relation("CHILD")) == 0
        assert len(back.relation("PARENT")) == 2

    def test_types_survive(self, tiny_db, tmp_path):
        back = load_database(save_database(tiny_db, tmp_path / "t"))
        row = next(iter(back.relation("PARENT").scan()))
        assert isinstance(row["PID"], int)
        assert isinstance(row["NAME"], str)

    def test_paper_instance_roundtrip(self, paper_db, tmp_path):
        back = load_database(save_database(paper_db, tmp_path / "movies"))
        assert back.cardinalities() == paper_db.cardinalities()
        assert back.integrity_violations() == []


def _rewrite_record(path, line, change):
    """Replace data record *line* (1 = the first after the header) of a
    CSV file by ``change(fields)``."""
    with open(path, newline="") as handle:
        records = list(csv.reader(handle))
    records[line] = change(records[line])
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(records)


class TestFieldCount:
    """A record whose field count differs from its header's is refused,
    naming the file and the line, instead of losing or inventing
    values."""

    def test_extra_fields_refused(self, paper_db, tmp_path):
        path = save_database(paper_db, tmp_path / "extra")
        _rewrite_record(path / "GENRE.csv", 2, lambda f: f + ["x", "y"])
        with pytest.raises(SchemaError) as refused:
            load_database(path)
        message = str(refused.value)
        assert "GENRE.csv" in message and "line 3" in message
        assert "4 fields" in message and "header has 2" in message

    def test_short_record_refused(self, paper_db, tmp_path):
        path = save_database(paper_db, tmp_path / "short")
        header = (path / "MOVIE.csv").read_text().splitlines()[0]
        cut = header.split(",").index("YEAR") + 1
        _rewrite_record(path / "MOVIE.csv", 1, lambda f: f[:cut])
        with pytest.raises(SchemaError) as refused:
            load_database(path, enforce_foreign_keys=False)
        message = str(refused.value)
        assert "MOVIE.csv" in message and "line 2" in message

    def test_header_subset_still_loads(self, tiny_db, tmp_path):
        """A file may hold fewer columns than the schema (the header
        says which); each record then matches its header."""
        path = save_database(tiny_db, tmp_path / "subset")
        csv_path = path / "CHILD.csv"
        with open(csv_path, newline="") as handle:
            records = list(csv.reader(handle))
        keep = [records[0].index(n) for n in records[0] if n != "LABEL"]
        with open(csv_path, "w", newline="") as handle:
            csv.writer(handle).writerows(
                [[record[i] for i in keep] for record in records]
            )
        back = load_database(path)
        assert back.cardinalities() == tiny_db.cardinalities()
        assert {row["LABEL"] for row in back.relation("CHILD").scan()} == {
            None
        }
