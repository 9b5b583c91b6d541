"""TupleStore protocol conformance, run against every built-in store.

Each test exercises one clause of the contract in ``repro.storage.base``
on a raw store (no Relation façade in front), so a future third backend
can be dropped into ``STORES`` and inherit the whole battery. The
equality-semantics tests are the important ones: SQLite's type affinity
would happily match ``'1'`` against an INT column if the store didn't
guard its probes.
"""

from __future__ import annotations

import datetime

import pytest

from repro.relational import (
    Column,
    DataType,
    RelationSchema,
)
from repro.relational.errors import (
    PrimaryKeyViolation,
    UnknownTupleError,
)
from repro.storage import BACKEND_NAMES, resolve_backend


def _schema() -> RelationSchema:
    return RelationSchema(
        "T",
        [
            Column("ID", DataType.INT, nullable=False),
            Column("NAME", DataType.TEXT),
            Column("SCORE", DataType.FLOAT),
            Column("BORN", DataType.DATE),
            Column("ACTIVE", DataType.BOOL),
        ],
        primary_key="ID",
    )


@pytest.fixture(params=BACKEND_NAMES)
def store(request):
    backend = resolve_backend(request.param)
    store = backend.create_store(_schema())
    yield store
    backend.close()


ROWS = [
    (1, "ada", 1.5, datetime.date(1815, 12, 10), True),
    (2, "grace", 2.5, datetime.date(1906, 12, 9), False),
    (3, None, None, None, None),
    (4, "ada", 4.0, datetime.date(1815, 12, 10), True),
    (5, "", 0.0, datetime.date(2000, 1, 1), False),
]


def _fill(store):
    return [store.insert(row) for row in ROWS]


# ------------------------------------------------------------------ tids


def test_tids_start_at_one_and_increase(store):
    assert _fill(store) == [1, 2, 3, 4, 5]
    assert list(store.tids()) == [1, 2, 3, 4, 5]
    assert len(store) == 5


def test_tids_never_reused_after_delete(store):
    _fill(store)
    store.delete(5)
    assert store.insert((6, "new", None, None, None)) == 6


def test_tids_never_reused_after_clear(store):
    _fill(store)
    store.clear()
    assert len(store) == 0
    assert store.insert((9, "post", None, None, None)) == 6


def test_delete_unknown_tid_raises(store):
    _fill(store)
    with pytest.raises(UnknownTupleError):
        store.delete(99)


def test_duplicate_primary_key_rejected(store):
    _fill(store)
    with pytest.raises(PrimaryKeyViolation):
        store.insert((1, "dup", None, None, None))


# ----------------------------------------------------------------- update


def test_update_in_place_preserves_tid_and_order(store):
    _fill(store)
    store.update(3, (3, "hedy", 3.5, datetime.date(1914, 11, 9), True))
    assert store.get(3) == (3, "hedy", 3.5, datetime.date(1914, 11, 9), True)
    assert list(store.tids()) == [1, 2, 3, 4, 5]  # scan order unchanged
    assert len(store) == 5


def test_update_unknown_tid_raises(store):
    _fill(store)
    with pytest.raises(UnknownTupleError):
        store.update(99, (9, "x", None, None, None))


def test_update_changes_pk_mapping(store):
    _fill(store)
    store.update(2, (20, "grace", 2.5, None, False))
    assert store.lookup_pk((20,)) == 2
    assert store.lookup_pk((2,)) is None


def test_update_to_own_pk_is_fine(store):
    _fill(store)
    store.update(2, (2, "renamed", 2.5, None, False))
    assert store.lookup_pk((2,)) == 2


def test_update_to_foreign_pk_rejected(store):
    _fill(store)
    with pytest.raises(PrimaryKeyViolation):
        store.update(2, (1, "grace", 2.5, None, False))
    assert store.get(2) == ROWS[1]  # unchanged
    assert store.lookup_pk((1,)) == 1


def test_update_maintains_secondary_indexes(store):
    _fill(store)
    store.create_index("NAME")
    store.update(1, (1, "lovelace", 1.5, None, True))
    assert store.lookup("NAME", "lovelace") == {1}
    assert store.lookup("NAME", "ada") == {4}


def test_update_then_probe_unindexed(store):
    _fill(store)
    store.update(3, (3, "ada", None, None, None))
    assert store.lookup("NAME", "ada") == {1, 3, 4}
    assert store.lookup("NAME", None) == set()


# ------------------------------------------------------------------ reads


def test_get_returns_canonical_tuple(store):
    _fill(store)
    assert store.get(1) == ROWS[0]
    assert store.get(3) == ROWS[2]
    assert store.get(99) is None


def test_get_many_skips_absent_and_dedups(store):
    _fill(store)
    found = store.get_many([2, 2, 99, 4])
    assert found == {2: ROWS[1], 4: ROWS[3]}


def test_scan_is_tid_ordered(store):
    _fill(store)
    store.delete(2)
    assert [tid for tid, __ in store.scan()] == [1, 3, 4, 5]
    assert [stored for __, stored in store.scan()] == [
        ROWS[0],
        ROWS[2],
        ROWS[3],
        ROWS[4],
    ]


def test_contains(store):
    _fill(store)
    assert 1 in store
    assert 99 not in store


# ------------------------------------------------------------- equality


def test_lookup_none_matches_nulls_only(store):
    _fill(store)
    assert store.lookup("NAME", None) == {3}
    assert store.lookup("SCORE", None) == {3}


def test_lookup_empty_string_is_not_null(store):
    _fill(store)
    assert store.lookup("NAME", "") == {5}


def test_float_probe_matches_int_column(store):
    _fill(store)
    assert store.lookup("ID", 2.0) == {2}
    assert store.lookup("ID", 2) == {2}


def test_int_probe_matches_float_column(store):
    _fill(store)
    assert store.lookup("SCORE", 4) == {4}


def test_string_probe_never_matches_numeric_column(store):
    _fill(store)
    assert store.lookup("ID", "1") == set()
    assert store.lookup("SCORE", "1.5") == set()


def test_string_probe_never_matches_date_column(store):
    _fill(store)
    assert store.lookup("BORN", "1815-12-10") == set()
    assert store.lookup("BORN", datetime.date(1815, 12, 10)) == {1, 4}


def test_bool_probe_semantics(store):
    _fill(store)
    assert store.lookup("ACTIVE", True) == {1, 4}
    # Python bool == int: 1 == True, matching the dict reference
    assert store.lookup("ACTIVE", 1) == {1, 4}
    assert store.lookup("ACTIVE", False) == {2, 5}


def test_lookup_in_mixed_values(store):
    _fill(store)
    assert store.lookup_in("NAME", ["ada", "grace", "nobody"]) == {1, 2, 4}
    assert store.lookup_in("NAME", ["ada", None]) == {1, 3, 4}
    assert store.lookup_in("NAME", []) == set()


def test_lookup_in_large_value_list_chunks(store):
    _fill(store)
    probes = list(range(1000, 3000)) + [2]
    assert store.lookup_in("ID", probes) == {2}


def test_lookup_pk(store):
    _fill(store)
    assert store.lookup_pk((2,)) == 2
    assert store.lookup_pk((99,)) is None


def test_distinct_values_excludes_null(store):
    _fill(store)
    assert store.distinct_values("NAME") == {"ada", "grace", ""}
    assert store.distinct_values("BORN") == {
        datetime.date(1815, 12, 10),
        datetime.date(1906, 12, 9),
        datetime.date(2000, 1, 1),
    }


# ------------------------------------------------------------- indexes


def test_create_index_and_metadata(store):
    _fill(store)
    assert not store.has_index("NAME")
    store.create_index("NAME")
    store.create_index("SCORE")
    assert store.has_index("NAME")
    assert store.has_index("SCORE")
    assert not store.has_index("BORN")


def test_indexed_lookup_agrees_with_unindexed(store):
    _fill(store)
    before = store.lookup("NAME", "ada")
    store.create_index("NAME")
    assert store.lookup("NAME", "ada") == before
    store.insert((6, "ada", None, None, None))
    assert store.lookup("NAME", "ada") == before | {6}
    store.delete(1)
    assert store.lookup("NAME", "ada") == (before | {6}) - {1}


def test_index_survives_clear(store):
    _fill(store)
    store.create_index("NAME")
    store.clear()
    assert store.has_index("NAME")
    store.insert((7, "zed", None, None, None))
    assert store.lookup("NAME", "zed") == {6}


# ------------------------------------------------------------- composite pk


@pytest.fixture(params=BACKEND_NAMES)
def composite_store(request):
    backend = resolve_backend(request.param)
    schema = RelationSchema(
        "C",
        [
            Column("A", DataType.INT, nullable=False),
            Column("B", DataType.TEXT, nullable=False),
            Column("V", DataType.TEXT),
        ],
        primary_key=("A", "B"),
    )
    yield backend.create_store(schema)
    backend.close()


def test_composite_pk_lookup(composite_store):
    composite_store.insert((1, "x", "one-x"))
    composite_store.insert((1, "y", "one-y"))
    composite_store.insert((2, "x", "two-x"))
    assert composite_store.lookup_pk((1, "y")) == 2
    assert composite_store.lookup_pk((2, "y")) is None
    with pytest.raises(PrimaryKeyViolation):
        composite_store.insert((1, "x", "dup"))
