"""Unit tests for the standalone index structures."""

from repro.relational.index import HashIndex


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

