"""Exception hierarchy for the relational engine.

Every error raised by :mod:`repro.relational` derives from
:class:`RelationalError`, so callers can catch substrate failures with a
single ``except`` clause while still being able to discriminate finer
failure classes (schema misuse, constraint violations, type errors).
"""

from __future__ import annotations


class RelationalError(Exception):
    """Base class for all errors raised by the relational engine."""


class SchemaError(RelationalError):
    """A schema definition is malformed or referenced incorrectly.

    Raised for duplicate relation/attribute names, unknown relations or
    attributes, and foreign keys that reference non-existent columns.
    """


class TypeMismatchError(RelationalError):
    """A value does not conform to the declared type of its column."""

    def __init__(self, relation, attribute, expected, value):
        self.relation = relation
        self.attribute = attribute
        self.expected = expected
        self.value = value
        super().__init__(
            f"{relation}.{attribute}: expected {expected.name}, "
            f"got {type(value).__name__} ({value!r})"
        )


class ConstraintViolation(RelationalError):
    """Base class for integrity constraint violations."""


class PrimaryKeyViolation(ConstraintViolation):
    """An insert would duplicate an existing primary key value."""

    def __init__(self, relation, key):
        self.relation = relation
        self.key = key
        super().__init__(f"duplicate primary key {key!r} in {relation}")


class ForeignKeyViolation(ConstraintViolation):
    """An insert or delete would break referential integrity."""

    def __init__(self, message):
        super().__init__(message)


class NotNullViolation(ConstraintViolation):
    """A required (non-nullable) column received NULL."""

    def __init__(self, relation, attribute):
        self.relation = relation
        self.attribute = attribute
        super().__init__(f"{relation}.{attribute} may not be NULL")


class UnknownTupleError(RelationalError):
    """A tuple id does not exist in the relation it was looked up in."""

    def __init__(self, relation, tid):
        self.relation = relation
        self.tid = tid
        super().__init__(f"no tuple with id {tid} in {relation}")


class QueryError(RelationalError):
    """A query (operator call or SQL string) is malformed."""


class SQLSyntaxError(QueryError):
    """The DDL parser (:func:`~repro.relational.ddl.parse_ddl`) could not
    parse the input string."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
