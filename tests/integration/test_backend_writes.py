"""Cross-backend equivalence under writes.

The read-side battery (test_backend_equivalence.py) compares stores
that were only ever loaded. Here the same seeded random sequence of
inserts, updates and deletes reaches a memory and a SQLite database,
and after every write both stores must answer every probe alike:
``lookup``, ``lookup_in`` and ``distinct_values`` on the indexed
attributes, ``lookup_pk``, and the stored rows with their tids. The
writes touch every indexed column, and ``W``'s primary key is its whole
row, so its updates move the key itself. A write one backend refuses
with :class:`PrimaryKeyViolation` the other refuses too, and the
refusal leaves the store, the next tid and the data epoch as they were.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.relational import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    PrimaryKeyViolation,
    RelationSchema,
)

SCHEMA = DatabaseSchema(
    [
        RelationSchema(
            "P",
            [
                Column("PID", DataType.INT, nullable=False),
                Column("NAME", DataType.TEXT),
                Column("TEAM", DataType.INT),
            ],
            primary_key="PID",
        ),
        # a link relation: the key is the whole row, in column order
        RelationSchema(
            "W",
            [
                Column("PID", DataType.INT, nullable=False),
                Column("TAG", DataType.TEXT, nullable=False),
            ],
            primary_key=("PID", "TAG"),
        ),
    ]
)

#: every value a write may store, per column — also the probes
DOMAIN = {
    ("P", "PID"): list(range(1, 9)),
    ("P", "NAME"): ["ada", "grace", "hedy", None],
    ("P", "TEAM"): [1, 2, 3, None],
    ("W", "PID"): list(range(1, 6)),
    ("W", "TAG"): ["red", "blue", "green"],
}
INDEXED = {"P": ("NAME", "TEAM"), "W": ("PID", "TAG")}
KEYS = {
    "P": [(pid,) for pid in DOMAIN["P", "PID"]],
    "W": list(itertools.product(DOMAIN["W", "PID"], DOMAIN["W", "TAG"])),
}
ROWS = {
    "P": [(1, "ada", 1), (2, "grace", 2), (3, "hedy", 1), (4, None, None)],
    "W": [(1, "red"), (1, "blue"), (2, "red"), (3, "green")],
}


@pytest.fixture()
def pair():
    dbs = []
    for backend in ("memory", "sqlite"):
        db = Database.from_rows(SCHEMA, ROWS, backend=backend)
        for relation, attributes in INDEXED.items():
            for attribute in attributes:
                db.relation(relation).create_index(attribute)
        dbs.append(db)
    yield dbs
    for db in dbs:
        db.close()


def _state(db) -> dict:
    """Every probe the stores answer, plus the rows and the epoch."""
    state = {"epoch": db.data_epoch}
    for relation, attributes in INDEXED.items():
        store = db.relation(relation).store
        state[relation] = list(store.scan())
        state[relation, "pk"] = [
            store.lookup_pk(key) for key in KEYS[relation]
        ]
        for attribute in attributes:
            values = DOMAIN[relation, attribute]
            state[relation, attribute] = (
                [store.lookup(attribute, value) for value in values],
                store.lookup_in(attribute, values),
                store.lookup_in(attribute, values[::2]),
                store.distinct_values(attribute),
            )
    return state


def _random_write(rng: random.Random, db) -> tuple:
    """One write, drawn against the memory database's current tids."""
    relation = rng.choice(["P", "W"])
    tids = sorted(db.relation(relation).tids())
    kind = rng.choice(["insert", "insert", "update", "delete"])
    if kind != "insert" and not tids:
        kind = "insert"
    if relation == "P":
        row = (
            rng.choice(DOMAIN["P", "PID"]),
            rng.choice(DOMAIN["P", "NAME"]),
            rng.choice(DOMAIN["P", "TEAM"]),
        )
    else:
        row = (
            rng.choice(DOMAIN["W", "PID"]),
            rng.choice(DOMAIN["W", "TAG"]),
        )
    if kind == "insert":
        return ("insert", relation, row)
    tid = rng.choice(tids)
    if kind == "delete":
        return ("delete", relation, tid)
    names = SCHEMA.relation(relation).attribute_names
    changed = rng.sample(range(len(names)), rng.randint(1, len(names)))
    return (
        "update",
        relation,
        tid,
        {names[pos]: row[pos] for pos in changed},
    )


def _apply(db, write) -> object:
    """Apply *write*; returns the new tid of an insert, None for other
    writes, or :class:`PrimaryKeyViolation` when it is refused."""
    kind, relation, *args = write
    rel = db.relation(relation)
    try:
        if kind == "insert":
            return rel.insert(args[0])
        getattr(rel, kind)(*args)
        return None
    except PrimaryKeyViolation:
        return PrimaryKeyViolation


def _check(pair, write, next_tid) -> object:
    """Apply *write* to both databases; they must agree on the outcome
    and on every probe after it, and a refused write must change
    nothing."""
    before = [_state(db) for db in pair]
    outcomes = [_apply(db, write) for db in pair]
    assert outcomes[0] == outcomes[1], write
    after = [_state(db) for db in pair]
    assert after[0] == after[1], write
    outcome = outcomes[0]
    relation = write[1]
    if outcome is PrimaryKeyViolation:
        assert after == before, write
    elif write[0] == "insert":
        # each insert takes the next tid: a refused one consumed none
        assert outcome == next_tid[relation], write
        next_tid[relation] += 1
    return outcome


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_seeded_writes_keep_the_backends_equal(pair, seed):
    memory, __ = pair
    rng = random.Random(seed)
    next_tid = {name: len(rows) + 1 for name, rows in ROWS.items()}
    outcomes = [
        _check(pair, _random_write(rng, memory), next_tid)
        for __ in range(60)
    ]
    assert PrimaryKeyViolation in outcomes  # the sequence hit refusals
    # a whole-row key moves with its row; a duplicate whole row,
    # inserted or updated onto, is refused and changes nothing
    w = memory.relation("W")
    for key in KEYS["W"]:
        if len(w) >= 2:
            break
        _check(pair, ("insert", "W", key), next_tid)
    (tid, row), (__, other) = list(w.store.scan())[:2]
    free = next(key for key in KEYS["W"] if w.store.lookup_pk(key) is None)
    moved = ("update", "W", tid, {"PID": free[0], "TAG": free[1]})
    assert _check(pair, moved, next_tid) is None
    duplicate = ("insert", "W", free)
    assert _check(pair, duplicate, next_tid) is PrimaryKeyViolation
    onto = ("update", "W", tid, {"PID": other[0], "TAG": other[1]})
    assert _check(pair, onto, next_tid) is PrimaryKeyViolation
    # the key the row left is free again
    assert isinstance(_check(pair, ("insert", "W", row), next_tid), int)
