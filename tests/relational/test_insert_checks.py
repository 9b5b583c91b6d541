"""Inserts and updates store, coerce and refuse exactly what ``coerce``
plus the NOT NULL check do.

``Relation._normalize`` stores a value whose class is exactly its
column's canonical class without calling ``coerce``; every other value
goes through ``coerce`` and the NOT NULL check. These tests pin that
shortcut to its definition, for every data type, on every backend.
"""

import datetime
import enum

import pytest

from repro.relational import (
    Column,
    DataType,
    NotNullViolation,
    RelationSchema,
    TypeMismatchError,
)
from repro.relational.database import Database
from repro.relational.datatypes import coerce
from repro.relational.schema import DatabaseSchema


class _Level(enum.IntEnum):
    LOW = 1


#: one value of each kind a caller may hand in
CANDIDATES = [
    None,
    True,
    False,
    0,
    1,
    2,
    -3,
    2.0,
    2.5,
    "7",
    " 8 ",
    "2.5",
    "true",
    "No",
    "maybe",
    "",
    "2005-05-01",
    " 2005-05-01 ",
    datetime.date(2005, 5, 1),
    datetime.datetime(2005, 5, 1, 12, 30),
    b"bytes",
    [1],
    1 + 2j,
]


def _expected(value, dtype, required):
    """What coerce plus the NOT NULL check make of *value*: the stored
    value, or the error class."""
    try:
        coerced = coerce(value, dtype)
    except (ValueError, TypeError):
        return TypeMismatchError
    if coerced is None and required:
        return NotNullViolation
    return coerced


def _database(dtype, backend):
    schema = DatabaseSchema(
        [
            RelationSchema(
                "R",
                [
                    Column("K", DataType.INT),
                    Column("V", dtype, nullable=True),
                    Column("W", dtype, nullable=False),
                ],
                primary_key="K",
            )
        ]
    )
    return Database(schema, backend=backend)


def _outcome(call):
    try:
        return call()
    except (TypeMismatchError, NotNullViolation) as exc:
        return type(exc)


def _same(stored, expected):
    if isinstance(expected, type):
        return stored is expected
    return stored == expected and type(stored) is type(expected)


@pytest.mark.parametrize("dtype", list(DataType))
def test_insert_matches_coerce_and_not_null(dtype, backend):
    db = _database(dtype, backend)
    rel = db.relation("R")
    filler = coerce(
        {
            DataType.INT: 5,
            DataType.FLOAT: 5.0,
            DataType.TEXT: "five",
            DataType.DATE: "2005-05-05",
            DataType.BOOL: True,
        }[dtype],
        dtype,
    )
    for key, value in enumerate(CANDIDATES, start=1):
        for column, required in (("V", False), ("W", True)):
            values = {"K": key * 2 + required, "V": filler, "W": filler}
            values[column] = value
            expected = _expected(value, dtype, required)

            def insert():
                tid = rel.insert(values)
                return rel.fetch(tid)[column]

            stored = _outcome(insert)
            assert _same(stored, expected), (dtype, column, value, stored)
    db.close()


@pytest.mark.parametrize("dtype", list(DataType))
def test_update_matches_coerce_and_not_null(dtype, backend):
    db = _database(dtype, backend)
    rel = db.relation("R")
    start = {"K": 1, "V": None, "W": None}
    start["W"] = {
        DataType.INT: 5,
        DataType.FLOAT: 5.0,
        DataType.TEXT: "five",
        DataType.DATE: datetime.date(2005, 5, 5),
        DataType.BOOL: True,
    }[dtype]
    tid = rel.insert(start)
    for value in CANDIDATES:
        for column, required in (("V", False), ("W", True)):
            before = rel.fetch(tid).values
            expected = _expected(value, dtype, required)

            def update():
                rel.update(tid, {column: value})
                return rel.fetch(tid)[column]

            stored = _outcome(update)
            assert _same(stored, expected), (dtype, column, value, stored)
            if isinstance(expected, type):
                assert rel.fetch(tid).values == before
    db.close()


class TestNamedCases:
    def test_bool_into_int_refused(self, backend):
        rel = _database(DataType.INT, backend).relation("R")
        with pytest.raises(TypeMismatchError):
            rel.insert([1, True, 2])
        with pytest.raises(TypeMismatchError):
            rel.insert([1, 2, False])

    def test_int_enum_into_int_is_coerced(self):
        rel = _database(DataType.INT, "memory").relation("R")
        tid = rel.insert([1, _Level.LOW, 2])
        assert rel.fetch(tid)["V"] == 1

    def test_datetime_into_date_stored_as_date(self, backend):
        rel = _database(DataType.DATE, backend).relation("R")
        moment = datetime.datetime(2005, 5, 1, 12, 30)
        tid = rel.insert([1, moment, moment])
        row = rel.fetch(tid)
        for column in ("V", "W"):
            assert type(row[column]) is datetime.date
            assert row[column] == datetime.date(2005, 5, 1)

    def test_int_into_float_stored_as_float(self, backend):
        rel = _database(DataType.FLOAT, backend).relation("R")
        tid = rel.insert([1, 2, 3])
        row = rel.fetch(tid)
        assert type(row["V"]) is float and row["V"] == 2.0
        assert type(row["W"]) is float and row["W"] == 3.0

    def test_none_into_key_refused(self, backend):
        rel = _database(DataType.TEXT, backend).relation("R")
        with pytest.raises(NotNullViolation):
            rel.insert([None, "a", "b"])
        with pytest.raises(NotNullViolation):
            rel.insert({"V": "a", "W": "b"})
        tid = rel.insert([1, "a", "b"])
        with pytest.raises(NotNullViolation):
            rel.update(tid, {"K": None})

    def test_canonical_values_stored_as_given(self, backend):
        rel = _database(DataType.TEXT, backend).relation("R")
        tid = rel.insert((7, "as is", ""))
        assert rel.fetch(tid).values == (7, "as is", "")
