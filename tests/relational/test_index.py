"""Unit tests for the standalone index structures."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational import Column, DataType, RelationSchema
from repro.relational.index import HashIndex
from repro.storage.memory import MemoryStore


class TestHashIndex:
    def test_insert_lookup(self):
        idx = HashIndex("R", "A")
        idx.insert("x", 1)
        idx.insert("x", 2)
        idx.insert("y", 3)
        assert idx.lookup("x") == {1, 2}
        assert idx.lookup("z") == frozenset()

    def test_remove(self):
        idx = HashIndex("R", "A")
        idx.insert("x", 1)
        idx.insert("x", 2)
        idx.remove("x", 1)
        assert idx.lookup("x") == {2}
        idx.remove("x", 2)
        assert "x" not in idx
        idx.remove("x", 99)  # no-op on missing

    def test_lookup_many(self):
        idx = HashIndex("R", "A")
        idx.insert("x", 1)
        idx.insert("y", 2)
        idx.insert("z", 3)
        assert idx.lookup_many(["x", "z", "nope"]) == {1, 3}

    def test_len_counts_distinct_values(self):
        idx = HashIndex("R", "A")
        idx.insert("x", 1)
        idx.insert("x", 2)
        assert len(idx) == 1

    def test_clear(self):
        idx = HashIndex("R", "A")
        idx.insert("x", 1)
        idx.clear()
        assert len(idx) == 0

    def test_none_values_indexable(self):
        idx = HashIndex("R", "A")
        idx.insert(None, 1)
        assert idx.lookup(None) == {1}


# ------------------------------------------------------------ properties

#: values a dict tells apart only by equality: None, and numbers of
#: different classes that compare equal (0 == 0.0 == False, 1 == 1.0 ==
#: True), beside plain distinct ones
VALUES = [None, 0, 0.0, False, 1, 1.0, True, 2, "x", "y"]

STEPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "remove"]),
        st.sampled_from(VALUES),
        st.integers(min_value=1, max_value=6),
    ),
    max_size=40,
)


class _Model:
    """The reference: a dict of tid sets, kept as lists so that the
    insertion order a bucket must keep can be checked; a value goes
    when its last tid does."""

    def __init__(self):
        self.buckets: dict = {}

    def insert(self, value, tid):
        tids = self.buckets.setdefault(value, [])
        if tid not in tids:
            tids.append(tid)

    def remove(self, value, tid):
        tids = self.buckets.get(value)
        if tids is not None and tid in tids:
            tids.remove(tid)
            if not tids:
                del self.buckets[value]


def _assert_agrees(index, model):
    buckets = model.buckets
    for value in VALUES:
        found = index.lookup(value)
        assert type(found) is frozenset
        assert found == set(buckets.get(value, ()))
        assert (value in index) == (value in buckets)
    for probe in (VALUES, VALUES[::3], ["y", None], []):
        assert index.lookup_many(probe) == {
            tid for value in probe for tid in buckets.get(value, ())
        }
    # the same value objects, in the same order
    assert [(type(v), v) for v in index.distinct_values()] == [
        (type(v), v) for v in buckets
    ]
    assert len(index) == len(buckets)
    # one form per size: the bare tid, or a tuple in insertion order
    for value, tids in buckets.items():
        bucket = index._buckets[value]
        if len(tids) == 1:
            assert type(bucket) is int and bucket == tids[0]
        else:
            assert type(bucket) is tuple and list(bucket) == tids


class TestBucketProperties:
    @given(steps=STEPS)
    # a duplicate insert, an absent tid removed, a bucket shrinking to
    # one tid and growing again; then None and 1 == 1.0 == True
    @example(
        steps=[
            ("insert", "x", 3), ("insert", "x", 1), ("insert", "x", 2),
            ("insert", "x", 1), ("remove", "x", 1), ("remove", "x", 5),
            ("remove", "x", 3), ("insert", "x", 4), ("remove", "y", 1),
        ]
    )
    @example(
        steps=[
            ("insert", None, 1), ("insert", 1, 2), ("insert", 1.0, 3),
            ("insert", True, 2), ("remove", 1, 2), ("remove", True, 3),
            ("insert", True, 4), ("remove", None, 1),
        ]
    )
    @settings(max_examples=100, deadline=None)
    def test_every_step_matches_a_dict_of_sets(self, steps):
        index, model = HashIndex("R", "A"), _Model()
        for op, value, tid in steps:
            getattr(index, op)(value, tid)
            getattr(model, op)(value, tid)
            _assert_agrees(index, model)

    @given(
        values=st.lists(st.sampled_from(VALUES), max_size=30),
        deleted=st.sets(st.integers(min_value=1, max_value=30)),
    )
    @settings(max_examples=100, deadline=None)
    def test_bulk_build_equals_inserting_into_an_indexed_store(
        self, values, deleted
    ):
        """``create_index`` over rows already stored gives the lookups
        (and the bucket forms) that indexing first and inserting the
        same rows gives."""
        schema = RelationSchema(
            "R",
            [
                Column("ID", DataType.INT, nullable=False),
                Column("A", DataType.INT),
            ],
            primary_key="ID",
        )
        built, grown = MemoryStore(schema), MemoryStore(schema)
        grown.create_index("A")
        for store in (built, grown):
            for pk, value in enumerate(values):
                store.insert((pk, value))
            for tid in sorted(deleted):
                if tid in store:
                    store.delete(tid)
        built.create_index("A")
        for value in VALUES:
            assert built.lookup("A", value) == grown.lookup("A", value)
        assert built.lookup_in("A", VALUES) == grown.lookup_in("A", VALUES)
        assert built.distinct_values("A") == grown.distinct_values("A")
        assert built._indexes["A"]._buckets == grown._indexes["A"]._buckets
