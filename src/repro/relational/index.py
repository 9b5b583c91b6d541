"""Secondary indexes over relations.

The paper assumes "indexes on all join attributes" (§6, cost model). The
engine provides a classic unclustered hash index mapping attribute value →
tuple ids: the précis generators only issue equality probes (tid-list
fetches and IN-list selections), so no value-ordered index is kept. Index
maintenance is transparent: the owning store updates its indexes on every
insert, update and delete.

A value's bucket holds no container of its own: it is the bare tid when
one tuple has the value, and an immutable tuple of tids, in insertion
order, when more do. A one-tid bucket is the same ``int`` the store keys
the row by, and a tuple of ints leaves the cyclic collector's care after
its first pass, so an index over a large relation adds dict slots, not
tracked objects. A write replaces its value's bucket (copying at most
that one tuple); :meth:`HashIndex.build` gathers each value's tids
before it freezes them, so a bulk build stays linear whatever the
bucket sizes.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Union

__all__ = ["HashIndex"]

#: a value's tids: the tid itself, or two or more in insertion order
Bucket = Union[int, tuple[int, ...]]


class HashIndex:
    """Unclustered equality index: value -> tuple ids."""

    def __init__(self, relation: str, attribute: str):
        self.relation = relation
        self.attribute = attribute
        self._buckets: dict[Any, Bucket] = {}

    @classmethod
    def build(
        cls, relation: str, attribute: str, entries: Iterable[tuple[Any, int]]
    ) -> "HashIndex":
        """An index over *entries*, ``(value, tid)`` pairs whose tids are
        distinct (a store's rows, in tid order). Each value's tids are
        gathered in a list and frozen once, so the build is linear."""
        index = cls(relation, attribute)
        buckets = index._buckets
        for value, tid in entries:
            bucket = buckets.get(value)
            if bucket is None:
                buckets[value] = tid
            elif type(bucket) is int:
                buckets[value] = [bucket, tid]
            else:
                bucket.append(tid)
        for value, bucket in buckets.items():
            if type(bucket) is list:
                buckets[value] = tuple(bucket)
        return index

    # -- maintenance ----------------------------------------------------------

    def insert(self, value: Any, tid: int) -> None:
        buckets = self._buckets
        bucket = buckets.get(value)
        if bucket is None:
            buckets[value] = tid
        elif type(bucket) is int:
            if bucket != tid:
                buckets[value] = (bucket, tid)
        elif tid not in bucket:
            buckets[value] = bucket + (tid,)

    def remove(self, value: Any, tid: int) -> None:
        buckets = self._buckets
        bucket = buckets.get(value)
        if bucket is None:
            return
        if type(bucket) is int:
            if bucket == tid:
                del buckets[value]
        elif tid in bucket:
            rest = tuple([t for t in bucket if t != tid])
            buckets[value] = rest[0] if len(rest) == 1 else rest

    def clear(self) -> None:
        self._buckets.clear()

    # -- probing ----------------------------------------------------------------

    def lookup(self, value: Any) -> frozenset[int]:
        """Tuple ids whose indexed attribute equals *value*."""
        bucket = self._buckets.get(value, ())
        if type(bucket) is int:
            return frozenset((bucket,))
        return frozenset(bucket)

    def lookup_many(self, values: Iterable[Any]) -> set[int]:
        """Union of lookups over *values* (the IN-list probe the Result

        Database Generator issues for every executed join edge)."""
        buckets = self._buckets
        out: set[int] = set()
        for value in values:
            bucket = buckets.get(value)
            if bucket is None:
                continue
            if type(bucket) is int:
                out.add(bucket)
            else:
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
