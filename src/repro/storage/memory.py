"""The in-memory reference store — the seed engine's dict storage, extracted.

Tuples live in an insertion-ordered ``dict[tid, tuple]`` (tid order ==
insertion order == ascending, since tids are assigned monotonically),
the primary key in a ``dict[pk tuple, tid]``, and secondary indexes as
:class:`~repro.relational.index.HashIndex` objects maintained on every
insert, update and delete. This is the semantics reference every other
backend is property-tested against.

A primary key that covers the whole row in column order (a pure link
relation such as ``GENRE (MID, GENRE)``) is keyed by the stored row
itself, so such a relation holds one tuple per row, not two; the store
decides this once, from its schema.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

from ..relational.errors import PrimaryKeyViolation, UnknownTupleError
from ..relational.index import HashIndex
from ..relational.schema import RelationSchema
from .base import StorageBackend, TupleStore

__all__ = ["MemoryStore", "MemoryBackend"]


class MemoryStore(TupleStore):
    """Dict-backed tuple storage (the engine's original behavior)."""

    def __init__(self, schema: RelationSchema):
        self.schema = schema
        self._tuples: dict[int, tuple] = {}
        self._next_tid = 1
        self._pk_index: dict[tuple, int] = {}
        self._indexes: dict[str, HashIndex] = {}
        #: the key is the whole row, in column order: the row keys itself
        self._pk_is_row = schema.primary_key_positions == tuple(
            range(len(schema.columns))
        )

    # ------------------------------------------------------------- writes

    def _pk_of(self, stored: tuple) -> Optional[tuple]:
        if self._pk_is_row:
            return stored
        positions = self.schema.primary_key_positions
        if not positions:
            return None
        return tuple([stored[p] for p in positions])

    def insert(self, stored: tuple) -> int:
        tid = self._next_tid
        pk_value = self._pk_of(stored)
        # one probe claims the key, or finds its owner
        if (
            pk_value is not None
            and self._pk_index.setdefault(pk_value, tid) != tid
        ):
            raise PrimaryKeyViolation(self.schema.name, pk_value)
        self._next_tid = tid + 1
        self._tuples[tid] = stored
        for attr, index in self._indexes.items():
            index.insert(stored[self.schema.position(attr)], tid)
        return tid

    def update(self, tid: int, stored: tuple) -> None:
        old = self._tuples.get(tid)
        if old is None:
            raise UnknownTupleError(self.schema.name, tid)
        new_pk = self._pk_of(stored)
        if new_pk is not None:
            owner = self._pk_index.get(new_pk)
            if owner is not None and owner != tid:
                raise PrimaryKeyViolation(self.schema.name, new_pk)
        old_pk = self._pk_of(old)
        if old_pk is not None and old_pk != new_pk:
            self._pk_index.pop(old_pk, None)
        if new_pk is not None:
            self._pk_index[new_pk] = tid
        # replace in place: dict ordering (== tid order) is unaffected
        self._tuples[tid] = stored
        for attr, index in self._indexes.items():
            pos = self.schema.position(attr)
            if old[pos] != stored[pos]:
                index.remove(old[pos], tid)
                index.insert(stored[pos], tid)

    def delete(self, tid: int) -> None:
        stored = self._tuples.pop(tid, None)
        if stored is None:
            raise UnknownTupleError(self.schema.name, tid)
        pk_value = self._pk_of(stored)
        if pk_value is not None:
            self._pk_index.pop(pk_value, None)
        for attr, index in self._indexes.items():
            index.remove(stored[self.schema.position(attr)], tid)

    def clear(self) -> None:
        self._tuples.clear()
        self._pk_index.clear()
        for index in self._indexes.values():
            index.clear()

    # ------------------------------------------------------------- reads

    def get(self, tid: int) -> Optional[tuple]:
        return self._tuples.get(tid)

    def get_many(self, tids: Sequence[int]) -> dict[int, tuple]:
        tuples = self._tuples
        return {tid: tuples[tid] for tid in tids if tid in tuples}

    def scan(self) -> Iterator[tuple[int, tuple]]:
        return iter(self._tuples.items())

    def tids(self) -> Iterator[int]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, tid: int) -> bool:
        return tid in self._tuples

    # ------------------------------------------------------------- probes

    def lookup(self, attribute: str, value: Any) -> set[int]:
        index = self._indexes.get(attribute)
        if index is not None:
            return index.lookup_many((value,))
        pos = self.schema.position(attribute)
        return {
            tid for tid, stored in self._tuples.items() if stored[pos] == value
        }

    def lookup_in(self, attribute: str, values: Iterable[Any]) -> set[int]:
        index = self._indexes.get(attribute)
        if index is not None:
            return index.lookup_many(values)
        pos = self.schema.position(attribute)
        wanted = set(values)
        return {
            tid
            for tid, stored in self._tuples.items()
            if stored[pos] in wanted
        }

    def lookup_pk(self, key: tuple) -> Optional[int]:
        return self._pk_index.get(key)

    def distinct_values(self, attribute: str) -> set[Any]:
        index = self._indexes.get(attribute)
        if index is not None:
            return {v for v in index.distinct_values() if v is not None}
        pos = self.schema.position(attribute)
        return {
            stored[pos]
            for stored in self._tuples.values()
            if stored[pos] is not None
        }

    # ------------------------------------------------------------- indexes

    def create_index(self, attribute: str) -> None:
        pos = self.schema.position(attribute)
        self._indexes[attribute] = HashIndex.build(
            self.schema.name,
            attribute,
            ((stored[pos], tid) for tid, stored in self._tuples.items()),
        )

    def has_index(self, attribute: str) -> bool:
        return attribute in self._indexes

    def __repr__(self):
        return f"MemoryStore({self.schema.name}, {len(self)} tuples)"


class MemoryBackend(StorageBackend):
    """One :class:`MemoryStore` per relation; no shared state."""

    name = "memory"

    def create_store(self, schema: RelationSchema) -> MemoryStore:
        return MemoryStore(schema)
