"""Pluggable storage backends for the relational substrate.

The précis pipeline only ever touches tuples through the
:class:`~repro.storage.base.TupleStore` protocol — seed lookups, tid
fetches, ordered scans, IN-list join probes, index creation — so the
same engine runs unchanged over any backend implementing it. Two ship
in-tree:

* ``"memory"`` — :class:`~repro.storage.memory.MemoryStore`, the
  dict-based reference implementation (the seed engine's storage,
  extracted);
* ``"sqlite"`` — :class:`~repro.storage.sqlite.SQLiteStore`, stdlib
  ``sqlite3``, one table per relation, real indexes, optionally
  file-persistent.

Backend selection threads through
:class:`~repro.relational.database.Database`::

    Database(schema, backend="sqlite")
    Database.from_rows(schema, data, backend=SQLiteBackend("precis.db"))

See ``docs/storage.md`` for the protocol contract and how to add a
third backend to :func:`~repro.storage.registry.resolve_backend`.
"""

from __future__ import annotations

from .base import (
    PermanentStorageError,
    StorageBackend,
    StorageError,
    TransientStorageError,
    TupleStore,
)
from .memory import MemoryBackend, MemoryStore
from .registry import BACKEND_NAMES, resolve_backend
from .sqlite import SQLiteBackend, SQLiteStore

__all__ = [
    "TupleStore",
    "StorageBackend",
    "StorageError",
    "TransientStorageError",
    "PermanentStorageError",
    "MemoryStore",
    "MemoryBackend",
    "SQLiteStore",
    "SQLiteBackend",
    "BACKEND_NAMES",
    "resolve_backend",
]
