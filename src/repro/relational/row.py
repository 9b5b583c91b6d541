"""Row objects returned by the engine's operators.

A :class:`Row` is an immutable, schema-aware view over a tuple of values.
It behaves both like a mapping (``row["title"]``) and like a sequence
(``row[0]``, iteration yields values in schema order), and carries the
tuple id (*tid*) it was read from so that downstream stages — notably the
Result Database Generator, which re-fetches join partners by id lists —
can refer back to storage.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

from .errors import SchemaError

__all__ = ["Row"]


class Row:
    """One tuple of a relation, projected on an explicit attribute list."""

    __slots__ = ("relation", "tid", "attributes", "values", "_index")

    def __init__(
        self,
        relation: str,
        tid: int,
        attributes: Sequence[str],
        values: Sequence[Any],
    ):
        if len(attributes) != len(values):
            raise SchemaError(
                f"row arity mismatch in {relation}: "
                f"{len(attributes)} attributes, {len(values)} values"
            )
        self.relation = relation
        self.tid = tid
        self.attributes = tuple(attributes)
        self.values = tuple(values)
        # name -> position, built on the first access by name
        self._index: Optional[dict[str, int]] = None

    # -- access --------------------------------------------------------------

    def _position(self, name: str) -> Optional[int]:
        if self._index is None:
            self._index = {a: pos for pos, a in enumerate(self.attributes)}
        return self._index.get(name)

    def __getitem__(self, key: str | int) -> Any:
        if isinstance(key, int):
            return self.values[key]
        pos = self._position(key)
        if pos is None:
            raise SchemaError(
                f"row of {self.relation} has no attribute {key!r}"
            )
        return self.values[pos]

    def get(self, key: str, default: Any = None) -> Any:
        pos = self._position(key)
        return default if pos is None else self.values[pos]

    def __contains__(self, key: str) -> bool:
        return self._position(key) is not None

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def as_dict(self) -> dict[str, Any]:
        return dict(zip(self.attributes, self.values))

    def project(self, attributes: Sequence[str]) -> "Row":
        """A new row restricted to *attributes* (in the given order)."""
        return Row(
            self.relation,
            self.tid,
            attributes,
            tuple(self[a] for a in attributes),
        )

    # -- equality / hashing ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Row):
            return NotImplemented
        return (
            self.relation == other.relation
            and self.attributes == other.attributes
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.relation, self.attributes, self.values))

    def __repr__(self):
        pairs = ", ".join(
            f"{a}={v!r}" for a, v in zip(self.attributes, self.values)
        )
        return f"Row({self.relation}#{self.tid}: {pairs})"
