"""An in-memory relational engine — the storage substrate for précis queries.

The paper ran on Oracle 9i; this package replaces it with a small,
fully-tested engine exposing exactly what the précis algorithms need:
typed schemas with primary/foreign keys, tuple-id addressed storage,
hash indexes on join attributes, IN-list and tid-list selections
with limits (NaïveQ), round-robin scan cursors, per-operation cost
accounting matching the paper's ``IndexTime``/``TupleTime`` model, and
CSV round-tripping.
"""

from .cost import CostMeter, CostParameters, CostSnapshot
from .database import Database
from .ddl import create_schema_sql, create_table_sql, parse_ddl
from .datatypes import DataType
from .errors import (
    ConstraintViolation,
    ForeignKeyViolation,
    NotNullViolation,
    PrimaryKeyViolation,
    QueryError,
    RelationalError,
    SchemaError,
    SQLSyntaxError,
    TypeMismatchError,
    UnknownTupleError,
)
from .index import HashIndex
from .query import RoundRobinScans
from .relation import Relation
from .stats import FanoutStats, RelationStats, database_summary, fanout_stats, relation_stats
from .row import Row
from .schema import Column, DatabaseSchema, ForeignKey, RelationSchema

__all__ = [
    "CostMeter",
    "CostParameters",
    "CostSnapshot",
    "Database",
    "DataType",
    "Column",
    "DatabaseSchema",
    "ForeignKey",
    "RelationSchema",
    "Relation",
    "Row",
    "HashIndex",
    "RoundRobinScans",
    "RelationalError",
    "SchemaError",
    "TypeMismatchError",
    "ConstraintViolation",
    "PrimaryKeyViolation",
    "ForeignKeyViolation",
    "NotNullViolation",
    "UnknownTupleError",
    "QueryError",
    "SQLSyntaxError",
    "create_table_sql",
    "create_schema_sql",
    "parse_ddl",
    "RelationStats",
    "FanoutStats",
    "relation_stats",
    "fanout_stats",
    "database_summary",
]
