"""Keeping the inverted index synchronized with a live database.

The paper's system builds its index once over a static IMDB dump; a
library must also serve databases that change. :class:`SynchronizedWriter`
wraps a database + index pair and routes inserts/deletes through both,
so précis answers immediately reflect new data. Attributes indexed are
whatever the index already covers (plus any TEXT column of relations
never seen before, matching ``build_index``'s default).
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from ..relational.database import Database
from ..relational.datatypes import DataType, render
from .inverted_index import InvertedIndex

__all__ = ["SynchronizedWriter"]


class SynchronizedWriter:
    """Insert/delete through the database and the inverted index at once."""

    def __init__(self, db: Database, index: InvertedIndex):
        self.db = db
        self.index = index

    # ----------------------------------------------------------------- info

    def _indexed_attributes(self, relation: str) -> list[str]:
        known = [
            attribute
            for (rel, attribute) in self.index.indexed_attributes
            if rel == relation
        ]
        if known:
            return known
        # relation never indexed: adopt the build_index default (all
        # TEXT columns)
        schema = self.db.relation(relation).schema
        return [
            col.name for col in schema.columns if col.dtype is DataType.TEXT
        ]

    # ---------------------------------------------------------------- writes

    def insert(
        self, relation: str, values: Mapping[str, Any] | Sequence[Any]
    ) -> int:
        """Insert a tuple and index its text content; returns the tid."""
        tid = self.db.insert(relation, values)
        row = self.db.relation(relation).fetch(tid)
        for attribute in self._indexed_attributes(relation):
            value = row.get(attribute)
            if value is not None:
                self.index.add_value(relation, attribute, tid, render(value))
        return tid

    def delete(self, relation: str, tid: int) -> None:
        """Remove a tuple from both the database and the index.

        The database deletes first, keeping referential integrity: a
        delete it refuses (the tuple still has children) leaves both the
        database and the index untouched."""
        row = self.db.relation(relation).fetch(tid)
        self.db.delete(relation, tid)
        for attribute in self._indexed_attributes(relation):
            value = row.get(attribute)
            if value is not None:
                self.index.remove_value(
                    relation, attribute, tid, render(value)
                )

    def update(
        self,
        relation: str,
        tid: int,
        changes: Mapping[str, Any],
    ) -> int:
        """Replace attribute values of one tuple **in place**; returns
        the (unchanged) tid.

        The tuple keeps its tid — inbound foreign-key references stay
        valid and the inverted index swaps only the postings of the
        changed values. (Earlier versions deleted and re-inserted,
        which assigned a fresh tid and dangled — or spuriously
        rejected — child rows referencing the old tuple.) On a failed
        update (unknown attribute, constraint or foreign-key violation)
        both the database and the index are left untouched.
        """
        rel = self.db.relation(relation)
        row = rel.fetch(tid)
        unknown = set(changes) - set(row.as_dict())
        if unknown:
            raise KeyError(
                f"unknown attributes for {relation}: {sorted(unknown)}"
            )
        attributes = self._indexed_attributes(relation)
        old_values = {a: row.get(a) for a in attributes}
        for attribute, value in old_values.items():
            if value is not None:
                self.index.remove_value(
                    relation, attribute, tid, render(value)
                )
        try:
            self.db.update(relation, tid, changes)
        except Exception:
            for attribute, value in old_values.items():
                if value is not None:
                    self.index.add_value(
                        relation, attribute, tid, render(value)
                    )
            raise
        new_row = rel.fetch(tid)
        for attribute in attributes:
            value = new_row.get(attribute)
            if value is not None:
                self.index.add_value(relation, attribute, tid, render(value))
        return tid
