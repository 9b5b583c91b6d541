"""Backend registry and selection-threading tests."""

from __future__ import annotations

import pytest

from repro.relational import Column, Database, DataType, DatabaseSchema, RelationSchema
from repro.storage import (
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
    resolve_backend,
)


def test_default_is_memory():
    assert isinstance(resolve_backend(None), MemoryBackend)
    assert resolve_backend(None).name == "memory"


def test_names_resolve():
    assert isinstance(resolve_backend("memory"), MemoryBackend)
    assert isinstance(resolve_backend("sqlite"), SQLiteBackend)


def test_instance_passes_through():
    backend = MemoryBackend()
    assert resolve_backend(backend) is backend


def test_instance_with_path_rejected():
    with pytest.raises(ValueError):
        resolve_backend(MemoryBackend(), path="/tmp/x.db")


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="unknown storage backend"):
        resolve_backend("postgres")


def test_non_string_spec_rejected():
    with pytest.raises(TypeError):
        resolve_backend(42)


def test_inline_sqlite_path(tmp_path):
    target = tmp_path / "inline.db"
    backend = resolve_backend(f"sqlite:{target}")
    try:
        assert isinstance(backend, SQLiteBackend)
    finally:
        backend.close()
    assert target.exists()


def test_path_alone_implies_sqlite(tmp_path):
    backend = resolve_backend(None, path=tmp_path / "implied.db")
    try:
        assert isinstance(backend, SQLiteBackend)
    finally:
        backend.close()


def test_inline_and_argument_path_conflict(tmp_path):
    with pytest.raises(ValueError, match="both"):
        resolve_backend("sqlite:/tmp/a.db", path=tmp_path / "b.db")


def test_database_reports_backend_name(tiny_schema):
    assert Database(tiny_schema).backend_name == "memory"
    db = Database(tiny_schema, backend="sqlite")
    assert db.backend_name == "sqlite"
    db.close()


def test_sqlite_relations_share_one_connection(tiny_schema):
    db = Database(tiny_schema, backend="sqlite")
    stores = [rel.store for rel in db]
    assert len({id(s._conn) for s in stores}) == 1
    db.close()


def test_sqlite_file_persists_and_rebuilds(tmp_path, tiny_schema):
    path = tmp_path / "p.db"
    db = Database(tiny_schema, backend=f"sqlite:{path}")
    db.insert("PARENT", {"PID": 1, "NAME": "alpha"})
    db.close()
    assert path.exists()
    # reopening the same file rebuilds the tables, so loading the same
    # rows twice never duplicates them
    db2 = Database(tiny_schema, backend=f"sqlite:{path}")
    assert len(db2.relation("PARENT")) == 0
    db2.insert("PARENT", {"PID": 1, "NAME": "alpha"})
    assert len(db2.relation("PARENT")) == 1
    db2.close()
