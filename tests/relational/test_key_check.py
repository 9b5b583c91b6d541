"""Each primary key is checked once, by the store.

``Relation.insert`` and ``update`` hand the normalized tuple straight to
the store, which refuses a key another tuple holds with
:class:`PrimaryKeyViolation`. These tests pin what the refusal leaves
behind on every backend — nothing: the length, the next tid, the data
epoch, the key mapping and every secondary index are as they were —
and that the façade makes no key probe of its own, so a second check
cannot come back unnoticed.
"""

import pytest

from repro.relational import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    PrimaryKeyViolation,
    RelationSchema,
)
from tests.service.faults import make_flaky

ROWS = [(1, "ada", 10), (2, "grace", 20), (3, "hedy", 10)]


@pytest.fixture()
def db(backend):
    schema = DatabaseSchema(
        [
            RelationSchema(
                "P",
                [
                    Column("PID", DataType.INT, nullable=False),
                    Column("NAME", DataType.TEXT),
                    Column("TEAM", DataType.INT),
                ],
                primary_key="PID",
            )
        ]
    )
    database = Database.from_rows(schema, {"P": ROWS}, backend=backend)
    database.relation("P").create_index("NAME")
    database.relation("P").create_index("TEAM")
    yield database
    database.close()


def _state(db):
    """Everything a refused write must leave as it was."""
    rel = db.relation("P")
    store = rel.store
    return {
        "len": len(rel),
        "epoch": db.data_epoch,
        "tuples": list(store.scan()),
        "pk": {pid: store.lookup_pk((pid,)) for pid in range(1, 6)},
        "NAME": {
            name: store.lookup("NAME", name)
            for name in ("ada", "grace", "hedy", "dup", "renamed")
        },
        "TEAM": {team: store.lookup("TEAM", team) for team in (10, 20, 99)},
        "distinct": (
            store.distinct_values("NAME"),
            store.distinct_values("TEAM"),
        ),
    }


class TestRefusedWrites:
    def test_duplicate_insert_changes_nothing(self, db):
        before = _state(db)
        with pytest.raises(PrimaryKeyViolation) as caught:
            db.insert("P", (2, "dup", 99))
        assert (caught.value.relation, caught.value.key) == ("P", (2,))
        assert "duplicate primary key (2,) in P" in str(caught.value)
        assert _state(db) == before
        # the refused insert consumed no tid
        assert db.insert("P", (4, "new", 20)) == len(ROWS) + 1

    def test_update_onto_another_key_changes_nothing(self, db):
        before = _state(db)
        with pytest.raises(PrimaryKeyViolation) as caught:
            db.relation("P").update(2, {"PID": 1, "NAME": "renamed"})
        assert (caught.value.relation, caught.value.key) == ("P", (1,))
        assert _state(db) == before
        assert db.insert("P", (4, "new", 20)) == len(ROWS) + 1


class TestOneCheck:
    """Through a counting store wrapper: the façade's writes reach the
    store once each and never probe the key."""

    def test_writes_make_no_key_probe(self, db):
        (store,) = make_flaky(db, fail_times=0).values()
        rel = db.relation("P")
        tid = rel.insert((4, "new", 20))
        rel.update(tid, {"NAME": "renamed"})
        with pytest.raises(PrimaryKeyViolation):
            rel.insert((1, "dup", 99))
        with pytest.raises(PrimaryKeyViolation):
            rel.update(tid, {"PID": 2})
        assert store.calls["insert"] == 2
        assert store.calls["update"] == 2
        assert store.calls["lookup_pk"] == 0
