"""SQLite-backed tuple storage (stdlib ``sqlite3``).

One table per relation, sharing a single connection per
:class:`SQLiteBackend` (per database). The engine-assigned tuple id is
an ``INTEGER PRIMARY KEY AUTOINCREMENT`` column ``_tid`` — monotonically
increasing and never reused, matching :class:`~repro.storage.memory.
MemoryStore`'s tid discipline exactly, so the two backends produce
identical tids (and therefore identical, deterministic précis answers)
for identical insertion sequences.

Representation
--------------

===========  ==================  =====================================
DataType     SQLite column       value mapping
===========  ==================  =====================================
INT          INTEGER             as-is
FLOAT        REAL                as-is
TEXT         TEXT                as-is
DATE         TEXT                ISO-8601 via ``date.isoformat()``
BOOL         INTEGER             0 / 1
===========  ==================  =====================================

Probe values are translated with the same mapping — with guards that
reject probes the in-memory reference semantics would never match (a
string probe on an INT column, a string on a DATE column), because
SQLite's type-affinity comparisons are *more* permissive than Python
``==`` and would otherwise produce phantom matches.

The relation's declared primary key becomes a ``UNIQUE`` index, real
secondary indexes (SQLite b-trees) back :meth:`SQLiteStore.create_index`,
and ``lookup_in`` executes as batched ``IN (...)`` queries chunked below
SQLite's bound-variable limit.
"""

from __future__ import annotations

import datetime
import sqlite3
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

from ..relational.datatypes import DataType
from ..relational.errors import (
    PrimaryKeyViolation,
    SchemaError,
    UnknownTupleError,
)
from ..relational.schema import RelationSchema
from .base import (
    PermanentStorageError,
    StorageBackend,
    TransientStorageError,
    TupleStore,
)

__all__ = ["SQLiteStore", "SQLiteBackend"]

#: OperationalError fragments that signal contention, not breakage —
#: the retryable class (`database is locked`, `database table is
#: locked`, `cannot start a transaction`, SQLITE_BUSY/SQLITE_LOCKED)
_TRANSIENT_MARKERS = ("locked", "busy", "interrupted")


def _run(conn: sqlite3.Connection, sql: str, params: Sequence[Any] = ()):
    """Execute *sql*, classifying driver failures for the retry layer.

    ``IntegrityError`` passes through untouched (the callers turn it
    into the semantic :class:`PrimaryKeyViolation`); lock/busy
    ``OperationalError``s become :class:`TransientStorageError` (safe to
    retry — the statement never ran); everything else the driver raises
    becomes :class:`PermanentStorageError`.
    """
    try:
        return conn.execute(sql, params)
    except sqlite3.IntegrityError:
        raise
    except sqlite3.OperationalError as exc:
        message = str(exc)
        lowered = message.lower()
        if any(marker in lowered for marker in _TRANSIENT_MARKERS):
            raise TransientStorageError(message) from exc
        raise PermanentStorageError(message) from exc
    except sqlite3.Error as exc:
        raise PermanentStorageError(str(exc)) from exc

#: tuple-id column added to every relation table
_TID = "_tid"

#: stay safely below SQLITE_MAX_VARIABLE_NUMBER (999 on older builds)
_CHUNK = 500

_SQL_TYPES = {
    DataType.INT: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.TEXT: "TEXT",
    DataType.DATE: "TEXT",
    DataType.BOOL: "INTEGER",
}

#: sentinel distinguishing "probe can never match" from a None SQL value
_NO_MATCH = object()


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def _to_sql(value: Any, dtype: DataType) -> Any:
    """Canonical Python value → SQLite storage value."""
    if value is None:
        return None
    if dtype is DataType.DATE:
        return value.isoformat()
    if dtype is DataType.BOOL:
        return int(value)
    return value


def _from_sql(value: Any, dtype: DataType) -> Any:
    """SQLite storage value → canonical Python value."""
    if value is None:
        return None
    if dtype is DataType.DATE:
        return datetime.date.fromisoformat(value)
    if dtype is DataType.BOOL:
        return bool(value)
    return value


def _probe_sql(value: Any, dtype: DataType) -> Any:
    """Probe value → SQLite comparison value, or ``_NO_MATCH``.

    Mirrors the reference semantics (Python ``==`` against the canonical
    stored value): numeric cross-matches are allowed (``2005.0`` equals
    INT ``2005``; ``True`` equals ``1``), string probes never match
    non-TEXT columns, and only exact ``datetime.date`` objects (not
    datetimes, not ISO strings) match a DATE column.
    """
    if value is None:
        return None
    if dtype in (DataType.INT, DataType.FLOAT):
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float)):
            return value
        return _NO_MATCH
    if dtype is DataType.TEXT:
        return value if isinstance(value, str) else _NO_MATCH
    if dtype is DataType.DATE:
        if isinstance(value, datetime.date) and not isinstance(
            value, datetime.datetime
        ):
            return value.isoformat()
        return _NO_MATCH
    if dtype is DataType.BOOL:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, (int, float)):
            return value  # True == 1 and False == 0 in the reference
        return _NO_MATCH
    return _NO_MATCH  # pragma: no cover - exhaustive over DataType


class SQLiteStore(TupleStore):
    """One relation stored as one SQLite table."""

    def __init__(
        self,
        schema: RelationSchema,
        connection: sqlite3.Connection,
        fresh: bool = True,
    ):
        if _TID in schema.attribute_names:
            raise SchemaError(
                f"{schema.name} has a column named {_TID!r}, which is "
                "reserved by the SQLite backend"
            )
        self.schema = schema
        self._conn = connection
        self._table = _quote(schema.name)
        self._columns = ", ".join(_quote(c.name) for c in schema.columns)
        self._dtypes = tuple(c.dtype for c in schema.columns)
        self._indexed: set[str] = set()
        if fresh:
            self._execute(f"DROP TABLE IF EXISTS {self._table}")
        self._create_table()

    def _execute(self, sql: str, params: Sequence[Any] = ()):
        return _run(self._conn, sql, params)

    def _create_table(self) -> None:
        cols = [f"{_quote(_TID)} INTEGER PRIMARY KEY AUTOINCREMENT"]
        cols.extend(
            f"{_quote(c.name)} {_SQL_TYPES[c.dtype]}" for c in self.schema.columns
        )
        self._execute(
            f"CREATE TABLE IF NOT EXISTS {self._table} ({', '.join(cols)})"
        )
        if self.schema.primary_key:
            pk_cols = ", ".join(_quote(a) for a in self.schema.primary_key)
            pk_name = _quote(f"pk_{self.schema.name}")
            self._execute(
                f"CREATE UNIQUE INDEX IF NOT EXISTS {pk_name} "
                f"ON {self._table} ({pk_cols})"
            )

    # ------------------------------------------------------------- writes

    def insert(self, stored: tuple) -> int:
        params = [
            _to_sql(value, dtype) for value, dtype in zip(stored, self._dtypes)
        ]
        placeholders = ", ".join("?" for _ in params)
        try:
            cursor = self._execute(
                f"INSERT INTO {self._table} ({self._columns}) "
                f"VALUES ({placeholders})",
                params,
            )
        except sqlite3.IntegrityError:
            pk_pos = self.schema.positions(self.schema.primary_key)
            raise PrimaryKeyViolation(
                self.schema.name, tuple(stored[p] for p in pk_pos)
            ) from None
        return int(cursor.lastrowid)

    def update(self, tid: int, stored: tuple) -> None:
        assignments = ", ".join(
            f"{_quote(c.name)} = ?" for c in self.schema.columns
        )
        params = [
            _to_sql(value, dtype) for value, dtype in zip(stored, self._dtypes)
        ]
        params.append(tid)
        try:
            cursor = self._execute(
                f"UPDATE {self._table} SET {assignments} "
                f"WHERE {_quote(_TID)} = ?",
                params,
            )
        except sqlite3.IntegrityError:
            pk_pos = self.schema.positions(self.schema.primary_key)
            raise PrimaryKeyViolation(
                self.schema.name, tuple(stored[p] for p in pk_pos)
            ) from None
        if cursor.rowcount == 0:
            raise UnknownTupleError(self.schema.name, tid)

    def delete(self, tid: int) -> None:
        cursor = self._execute(
            f"DELETE FROM {self._table} WHERE {_quote(_TID)} = ?", (tid,)
        )
        if cursor.rowcount == 0:
            raise UnknownTupleError(self.schema.name, tid)

    def clear(self) -> None:
        # the sqlite_sequence entry survives, so AUTOINCREMENT keeps
        # counting upward — same discipline as MemoryStore._next_tid
        self._execute(f"DELETE FROM {self._table}")

    # ------------------------------------------------------------- reads

    def _decode(self, record: Sequence[Any]) -> tuple:
        return tuple(
            _from_sql(value, dtype)
            for value, dtype in zip(record, self._dtypes)
        )

    def get(self, tid: int) -> Optional[tuple]:
        record = self._execute(
            f"SELECT {self._columns} FROM {self._table} "
            f"WHERE {_quote(_TID)} = ?",
            (tid,),
        ).fetchone()
        return None if record is None else self._decode(record)

    def get_many(self, tids: Sequence[int]) -> dict[int, tuple]:
        out: dict[int, tuple] = {}
        tid_list = list(dict.fromkeys(tids))
        for start in range(0, len(tid_list), _CHUNK):
            chunk = tid_list[start : start + _CHUNK]
            placeholders = ", ".join("?" for _ in chunk)
            for record in self._execute(
                f"SELECT {_quote(_TID)}, {self._columns} FROM {self._table} "
                f"WHERE {_quote(_TID)} IN ({placeholders})",
                chunk,
            ):
                out[record[0]] = self._decode(record[1:])
        return out

    def scan(self) -> Iterator[tuple[int, tuple]]:
        cursor = self._execute(
            f"SELECT {_quote(_TID)}, {self._columns} FROM {self._table} "
            f"ORDER BY {_quote(_TID)}"
        )
        for record in cursor:
            yield record[0], self._decode(record[1:])

    def tids(self) -> Iterator[int]:
        cursor = self._execute(
            f"SELECT {_quote(_TID)} FROM {self._table} "
            f"ORDER BY {_quote(_TID)}"
        )
        return (record[0] for record in cursor)

    def __len__(self) -> int:
        return self._execute(
            f"SELECT COUNT(*) FROM {self._table}"
        ).fetchone()[0]

    def __contains__(self, tid: int) -> bool:
        return (
            self._execute(
                f"SELECT 1 FROM {self._table} WHERE {_quote(_TID)} = ?",
                (tid,),
            ).fetchone()
            is not None
        )

    # ------------------------------------------------------------- probes

    def _dtype_of(self, attribute: str) -> DataType:
        return self.schema.column(attribute).dtype

    def lookup(self, attribute: str, value: Any) -> set[int]:
        col = _quote(attribute)
        if value is None:
            sql = (
                f"SELECT {_quote(_TID)} FROM {self._table} "
                f"WHERE {col} IS NULL"
            )
            return {r[0] for r in self._execute(sql)}
        probe = _probe_sql(value, self._dtype_of(attribute))
        if probe is _NO_MATCH:
            return set()
        sql = f"SELECT {_quote(_TID)} FROM {self._table} WHERE {col} = ?"
        return {r[0] for r in self._execute(sql, (probe,))}

    def lookup_in(self, attribute: str, values: Iterable[Any]) -> set[int]:
        dtype = self._dtype_of(attribute)
        want_null = False
        probes: list[Any] = []
        for value in dict.fromkeys(values):
            if value is None:
                want_null = True
                continue
            probe = _probe_sql(value, dtype)
            if probe is not _NO_MATCH:
                probes.append(probe)
        col = _quote(attribute)
        out: set[int] = set()
        for start in range(0, len(probes), _CHUNK):
            chunk = probes[start : start + _CHUNK]
            placeholders = ", ".join("?" for _ in chunk)
            out.update(
                r[0]
                for r in self._execute(
                    f"SELECT {_quote(_TID)} FROM {self._table} "
                    f"WHERE {col} IN ({placeholders})",
                    chunk,
                )
            )
        if want_null:
            out.update(
                r[0]
                for r in self._execute(
                    f"SELECT {_quote(_TID)} FROM {self._table} "
                    f"WHERE {col} IS NULL"
                )
            )
        return out

    def lookup_pk(self, key: tuple) -> Optional[int]:
        clauses = []
        params = []
        for attr, value in zip(self.schema.primary_key, key):
            probe = _probe_sql(value, self._dtype_of(attr))
            if probe is _NO_MATCH or probe is None:
                return None
            clauses.append(f"{_quote(attr)} = ?")
            params.append(probe)
        record = self._execute(
            f"SELECT {_quote(_TID)} FROM {self._table} "
            f"WHERE {' AND '.join(clauses)}",
            params,
        ).fetchone()
        return None if record is None else record[0]

    def distinct_values(self, attribute: str) -> set[Any]:
        dtype = self._dtype_of(attribute)
        col = _quote(attribute)
        return {
            _from_sql(r[0], dtype)
            for r in self._execute(
                f"SELECT DISTINCT {col} FROM {self._table} "
                f"WHERE {col} IS NOT NULL"
            )
        }

    # ------------------------------------------------------------- indexes

    def create_index(self, attribute: str) -> None:
        sql_name = f"idx_{self.schema.name}_{attribute}"
        self._execute(
            f"CREATE INDEX IF NOT EXISTS {_quote(sql_name)} "
            f"ON {self._table} ({_quote(attribute)})"
        )
        self._indexed.add(attribute)

    def has_index(self, attribute: str) -> bool:
        return attribute in self._indexed

    def __repr__(self):
        return f"SQLiteStore({self.schema.name}, {len(self)} tuples)"


class SQLiteBackend(StorageBackend):
    """One SQLite connection shared by all relations of a database.

    Parameters
    ----------
    path:
        Database file; ``None`` (default) uses a private in-memory
        database. A file path makes the store persistent and
        inspectable with the ``sqlite3`` CLI.
    fresh:
        Drop and recreate each relation's table when its store is
        created (default). This keeps loads deterministic — reloading a
        CSV directory into an existing file never duplicates rows — at
        the price of treating the file as a cache of the source data
        rather than the source of truth.
    """

    name = "sqlite"

    def __init__(
        self, path: Union[str, Path, None] = None, fresh: bool = True
    ):
        self.path = str(path) if path is not None else None
        self.fresh = fresh
        # With a serialized (threadsafety == 3) sqlite3 build the module
        # itself locks around every statement, so one connection may be
        # shared across the service layer's worker threads; on lesser
        # builds keep the stdlib's same-thread guard.
        share = sqlite3.threadsafety == 3
        self._conn = sqlite3.connect(
            self.path or ":memory:", check_same_thread=not share
        )
        # autocommit + relaxed durability: this is a query engine's
        # working store, not a system of record
        self._conn.isolation_level = None
        self._execute("PRAGMA synchronous = OFF")
        self._execute("PRAGMA journal_mode = MEMORY")

    def _execute(self, sql: str, params: Sequence[Any] = ()):
        return _run(self._conn, sql, params)

    @property
    def connection(self) -> sqlite3.Connection:
        return self._conn

    def create_store(self, schema: RelationSchema) -> SQLiteStore:
        return SQLiteStore(schema, self._conn, fresh=self.fresh)

    def close(self) -> None:
        self._conn.close()

    def __repr__(self):
        target = self.path or ":memory:"
        return f"SQLiteBackend({target!r})"
