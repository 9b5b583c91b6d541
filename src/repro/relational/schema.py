"""Schema objects: columns, relation schemas, foreign keys, database schemas.

Mirrors the data model of the paper (§3.1): a relation schema
``R_i(A_1i, …, A_ki)`` with a (non-composite, per the paper's simplifying
assumption) primary key, and join edges that "arise naturally due to
foreign key constraints". Composite keys are nevertheless supported by the
engine — the précis layer simply never needs them for the paper's schemas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .datatypes import DataType, canonical_class
from .errors import SchemaError

__all__ = ["Column", "ForeignKey", "RelationSchema", "DatabaseSchema"]


@dataclass(frozen=True)
class Column:
    """A single attribute of a relation.

    Parameters
    ----------
    name:
        Attribute name, unique within its relation.
    dtype:
        One of :class:`~repro.relational.datatypes.DataType`.
    nullable:
        Whether NULL values are accepted. Primary-key columns are always
        implicitly non-nullable regardless of this flag.
    """

    name: str
    dtype: DataType
    nullable: bool = True

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name {self.name!r}")


@dataclass(frozen=True)
class ForeignKey:
    """A referential constraint: ``source.column -> target.column``.

    The précis schema graph derives its join edges from these constraints
    (one edge in each direction, possibly with different weights).
    """

    source: str
    column: str
    target: str
    target_column: str

    def __str__(self):
        return (
            f"{self.source}.{self.column} -> "
            f"{self.target}.{self.target_column}"
        )


class RelationSchema:
    """Schema of a single relation: ordered columns plus a primary key."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Optional[Sequence[str] | str] = None,
    ):
        if not name or not name.isidentifier():
            raise SchemaError(f"invalid relation name {name!r}")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        if not self.columns:
            raise SchemaError(f"relation {name} must have at least one column")
        self._by_name = {}
        self._positions = {}
        for pos, col in enumerate(self.columns):
            if col.name in self._by_name:
                raise SchemaError(f"duplicate column {col.name} in {name}")
            self._by_name[col.name] = col
            self._positions[col.name] = pos
        if primary_key is None:
            pk: tuple[str, ...] = ()
        elif isinstance(primary_key, str):
            pk = (primary_key,)
        else:
            pk = tuple(primary_key)
        for attr in pk:
            if attr not in self._by_name:
                raise SchemaError(f"primary key column {attr} not in {name}")
        self.primary_key: tuple[str, ...] = pk
        # computed once: every insert and fetch reads them
        self.attribute_names: tuple[str, ...] = tuple(self._positions)
        self.primary_key_positions: tuple[int, ...] = self.positions(pk)
        #: per column, in order: (dtype, required, class) — required
        #: when the column is NOT NULL or part of the primary key; class
        #: the exact class of the type's canonical values, which an
        #: insert stores as it is, with no coercion or NULL check
        self.column_checks: tuple[tuple[DataType, bool, type], ...] = tuple(
            (
                col.dtype,
                not col.nullable or col.name in pk,
                canonical_class(col.dtype),
            )
            for col in self.columns
        )

    # -- lookups ----------------------------------------------------------

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"no column {name} in {self.name}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def position(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise SchemaError(f"no column {name} in {self.name}") from None

    def positions(self, names: Iterable[str]) -> tuple[int, ...]:
        try:
            return tuple([self._positions[n] for n in names])
        except KeyError as exc:
            raise SchemaError(
                f"no column {exc.args[0]} in {self.name}"
            ) from None

    def __len__(self):
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __repr__(self):
        cols = ", ".join(
            f"{c.name}*" if c.name in self.primary_key else c.name
            for c in self.columns
        )
        return f"RelationSchema({self.name}: {cols})"

    def __eq__(self, other):
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return (
            self.name == other.name
            and self.columns == other.columns
            and self.primary_key == other.primary_key
        )

    def __hash__(self):
        return hash((self.name, self.columns, self.primary_key))

    def project(self, attributes: Sequence[str]) -> "RelationSchema":
        """Derive a schema keeping only *attributes* (schema subsetting,

        query-model requirement 2 of the paper: each result relation keeps
        a subset of its original attributes). The primary key survives only
        if all of its columns survive.
        """
        attrs = list(dict.fromkeys(attributes))
        cols = [self.column(a) for a in attrs]
        pk = self.primary_key if all(k in attrs for k in self.primary_key) else ()
        return RelationSchema(self.name, cols, pk)


class DatabaseSchema:
    """A set of relation schemas plus the foreign keys linking them."""

    def __init__(
        self,
        relations: Sequence[RelationSchema] = (),
        foreign_keys: Sequence[ForeignKey] = (),
    ):
        self._relations: dict[str, RelationSchema] = {}
        self._foreign_keys: list[ForeignKey] = []
        for rel in relations:
            self.add_relation(rel)
        for fk in foreign_keys:
            self.add_foreign_key(fk)

    # -- construction ------------------------------------------------------

    def add_relation(self, schema: RelationSchema) -> None:
        if schema.name in self._relations:
            raise SchemaError(f"duplicate relation {schema.name}")
        self._relations[schema.name] = schema

    def add_foreign_key(self, fk: ForeignKey) -> None:
        src = self.relation(fk.source)
        tgt = self.relation(fk.target)
        if not src.has_column(fk.column):
            raise SchemaError(f"foreign key column missing: {fk}")
        if not tgt.has_column(fk.target_column):
            raise SchemaError(f"foreign key target column missing: {fk}")
        if src.column(fk.column).dtype != tgt.column(fk.target_column).dtype:
            raise SchemaError(f"foreign key type mismatch: {fk}")
        self._foreign_keys.append(fk)

    # -- lookups ------------------------------------------------------------

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    @property
    def relations(self) -> tuple[RelationSchema, ...]:
        return tuple(self._relations.values())

    @property
    def foreign_keys(self) -> tuple[ForeignKey, ...]:
        return tuple(self._foreign_keys)

    def relation(self, name: str) -> RelationSchema:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no relation {name} in schema") from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def foreign_keys_of(self, relation: str) -> list[ForeignKey]:
        """Foreign keys whose *source* is the given relation."""
        return [fk for fk in self._foreign_keys if fk.source == relation]

    def foreign_keys_into(self, relation: str) -> list[ForeignKey]:
        """Foreign keys whose *target* is the given relation."""
        return [fk for fk in self._foreign_keys if fk.target == relation]

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __len__(self):
        return len(self._relations)

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._relations.values())

    def __repr__(self):
        return (
            f"DatabaseSchema({len(self._relations)} relations, "
            f"{len(self._foreign_keys)} foreign keys)"
        )
