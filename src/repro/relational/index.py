"""Secondary indexes over relations.

The paper assumes "indexes on all join attributes" (§6, cost model). The
engine provides a classic unclustered hash index mapping attribute value →
set of tuple ids. Index maintenance is transparent: the owning
:class:`~repro.relational.relation.Relation` notifies its indexes on every
insert and delete.

A sorted index (value-ordered) is also provided; the précis algorithms do
not need range scans, and the index/scan-equivalence property tests
exercise both.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, Iterator

__all__ = ["HashIndex", "SortedIndex"]


class HashIndex:
    """Unclustered equality index: value -> set of tuple ids."""

    kind = "hash"

    def __init__(self, relation: str, attribute: str):
        self.relation = relation
        self.attribute = attribute
        self._buckets: dict[Any, set[int]] = {}

    # -- maintenance ----------------------------------------------------------

    def insert(self, value: Any, tid: int) -> None:
        self._buckets.setdefault(value, set()).add(tid)

    def remove(self, value: Any, tid: int) -> None:
        bucket = self._buckets.get(value)
        if bucket is None:
            return
        bucket.discard(tid)
        if not bucket:
            del self._buckets[value]

    def clear(self) -> None:
        self._buckets.clear()

    # -- probing ----------------------------------------------------------------

    def lookup(self, value: Any) -> frozenset[int]:
        """Tuple ids whose indexed attribute equals *value*."""
        return frozenset(self._buckets.get(value, ()))

    def lookup_many(self, values: Iterable[Any]) -> set[int]:
        """Union of lookups over *values* (the IN-list probe the Result

        Database Generator issues for every executed join edge)."""
        out: set[int] = set()
        for value in values:
            bucket = self._buckets.get(value)
            if bucket:
                out.update(bucket)
        return out

    def distinct_values(self) -> Iterator[Any]:
        return iter(self._buckets)

    def __len__(self):
        return len(self._buckets)

    def __contains__(self, value: Any) -> bool:
        return value in self._buckets

    def __repr__(self):
        return (
            f"HashIndex({self.relation}.{self.attribute}, "
            f"{len(self._buckets)} distinct values)"
        )


class SortedIndex:
    """Value-ordered index supporting equality and range probes.

    Keeps a sorted list of distinct values alongside a hash map to tid
    sets; insertion is O(log n) amortized for already-seen values and
    O(n) worst case for new ones, which is fine for the bulk-load-then-
    query usage pattern of this repository.
    """

    kind = "sorted"

    def __init__(self, relation: str, attribute: str):
        self.relation = relation
        self.attribute = attribute
        self._values: list[Any] = []
        self._buckets: dict[Any, set[int]] = {}

    def insert(self, value: Any, tid: int) -> None:
        bucket = self._buckets.get(value)
        if bucket is None:
            if value is not None:
                bisect.insort(self._values, value)
            self._buckets[value] = {tid}
        else:
            bucket.add(tid)

    def remove(self, value: Any, tid: int) -> None:
        bucket = self._buckets.get(value)
        if bucket is None:
            return
        bucket.discard(tid)
        if not bucket:
            del self._buckets[value]
            if value is not None:
                pos = bisect.bisect_left(self._values, value)
                if pos < len(self._values) and self._values[pos] == value:
                    del self._values[pos]

    def clear(self) -> None:
        self._values.clear()
        self._buckets.clear()

    def lookup(self, value: Any) -> frozenset[int]:
        return frozenset(self._buckets.get(value, ()))

    def lookup_many(self, values: Iterable[Any]) -> set[int]:
        out: set[int] = set()
        for value in values:
            bucket = self._buckets.get(value)
            if bucket:
                out.update(bucket)
        return out

    def range(self, low: Any = None, high: Any = None) -> set[int]:
        """Tuple ids with ``low <= value <= high`` (either bound optional).

        NULLs never match a range probe.
        """
        lo = 0 if low is None else bisect.bisect_left(self._values, low)
        hi = (
            len(self._values)
            if high is None
            else bisect.bisect_right(self._values, high)
        )
        out: set[int] = set()
        for value in self._values[lo:hi]:
            out.update(self._buckets[value])
        return out

    def distinct_values(self) -> Iterator[Any]:
        return iter(self._values)

    def __len__(self):
        return len(self._buckets)

    def __contains__(self, value: Any) -> bool:
        return value in self._buckets

    def __repr__(self):
        return (
            f"SortedIndex({self.relation}.{self.attribute}, "
            f"{len(self._buckets)} distinct values)"
        )
