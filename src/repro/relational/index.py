"""Secondary indexes over relations.

The paper assumes "indexes on all join attributes" (§6, cost model). The
engine provides a classic unclustered hash index mapping attribute value →
set of tuple ids: the précis generators only issue equality probes
(tid-list fetches and IN-list selections), so no value-ordered index is
kept. Index maintenance is transparent: the owning store updates its
indexes on every insert, update and delete.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

__all__ = ["HashIndex"]


class HashIndex:
    """Unclustered equality index: value -> set of tuple ids."""

    def __init__(self, relation: str, attribute: str):
        self.relation = relation
        self.attribute = attribute
        self._buckets: dict[Any, set[int]] = {}

    # -- maintenance ----------------------------------------------------------

    def insert(self, value: Any, tid: int) -> None:
        bucket = self._buckets.get(value)
        if bucket is None:
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
