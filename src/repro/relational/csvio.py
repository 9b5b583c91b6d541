"""CSV import/export for databases.

Round-trips a :class:`~repro.relational.database.Database` through a
directory of one CSV file per relation plus a ``_schema.json`` manifest.
Useful for inspecting précis answers, for shipping the extracted test
databases of the §1 enterprise use case, and for the examples.

NULL handling: SQL NULL is written as the ``\\N`` marker (the MySQL
convention), so a NULL TEXT value and an empty string survive the round
trip as distinct values. A literal ``\\N`` string is escaped to
``\\\\N``. For files written before the marker existed, an empty field
in a non-TEXT column still loads as NULL (nothing else it could be);
an empty field in a TEXT column loads as the empty string.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Callable, Union

from ..storage.base import StorageBackend
from .database import Database
from .datatypes import DataType, render, text_parser
from .errors import SchemaError
from .schema import Column, DatabaseSchema, ForeignKey, RelationSchema

__all__ = ["save_database", "load_database", "schema_to_dict", "schema_from_dict"]

_MANIFEST = "_schema.json"
_NULL = "\\N"
_ESCAPED_NULL = "\\\\N"


def _to_field(value) -> str:
    if value is None:
        return _NULL
    text = render(value)
    return _ESCAPED_NULL if text == _NULL else text


def _field_reader(dtype: DataType) -> Callable[[str], Any]:
    """One column's field text -> value, resolved once per file: the
    NULL marker, its escape, the legacy empty field, else what
    :func:`~repro.relational.datatypes.coerce` makes of the text."""
    parse = text_parser(dtype)
    empty_is_null = dtype is not DataType.TEXT

    def read(text: str):
        if text == _NULL:
            return None
        if text == _ESCAPED_NULL:
            return _NULL
        if not text and empty_is_null:
            return None  # legacy files: NULL was the empty field
        return parse(text)

    return read


def schema_to_dict(schema: DatabaseSchema) -> dict:
    """Serialize a schema to plain JSON-compatible data."""
    return {
        "relations": [
            {
                "name": rs.name,
                "primary_key": list(rs.primary_key),
                "columns": [
                    {
                        "name": c.name,
                        "dtype": c.dtype.value,
                        "nullable": c.nullable,
                    }
                    for c in rs.columns
                ],
            }
            for rs in schema
        ],
        "foreign_keys": [
            {
                "source": fk.source,
                "column": fk.column,
                "target": fk.target,
                "target_column": fk.target_column,
            }
            for fk in schema.foreign_keys
        ],
    }


def schema_from_dict(data: dict) -> DatabaseSchema:
    """Inverse of :func:`schema_to_dict`."""
    try:
        relations = [
            RelationSchema(
                rs["name"],
                [
                    Column(
                        c["name"],
                        DataType(c["dtype"]),
                        c.get("nullable", True),
                    )
                    for c in rs["columns"]
                ],
                rs.get("primary_key") or None,
            )
            for rs in data["relations"]
        ]
        fks = [
            ForeignKey(
                fk["source"], fk["column"], fk["target"], fk["target_column"]
            )
            for fk in data.get("foreign_keys", [])
        ]
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"malformed schema manifest: {exc}") from exc
    return DatabaseSchema(relations, fks)


def save_database(db: Database, directory: Union[str, Path]) -> Path:
    """Write *db* to *directory* (created if missing); returns the path."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    manifest = path / _MANIFEST
    manifest.write_text(json.dumps(schema_to_dict(db.schema), indent=2))
    for rel in db:
        names = rel.schema.attribute_names
        with open(path / f"{rel.name}.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(names)
            for _tid, stored in rel.store.scan():  # unmetered: export
                writer.writerow([_to_field(v) for v in stored])
    return path


def load_database(
    directory: Union[str, Path],
    enforce_foreign_keys: bool = True,
    create_indexes: bool = True,
    backend: Union[str, StorageBackend, None] = None,
) -> Database:
    """Load a database previously written by :func:`save_database`."""
    path = Path(directory)
    manifest = path / _MANIFEST
    if not manifest.exists():
        raise SchemaError(f"no {_MANIFEST} manifest in {path}")
    schema = schema_from_dict(json.loads(manifest.read_text()))
    data: dict[str, list[tuple]] = {}
    for rs in schema:
        csv_path = path / f"{rs.name}.csv"
        rows: list[tuple] = []
        if csv_path.exists():
            with open(csv_path, newline="") as handle:
                reader = csv.reader(handle)
                header = next(reader, None)
                if header is None:
                    header = list(rs.attribute_names)
                order = [rs.position(name) for name in header]
                fields = [
                    (pos, _field_reader(rs.columns[pos].dtype))
                    for pos in order
                ]
                for record in reader:
                    if len(record) != len(fields):
                        raise SchemaError(
                            f"{csv_path}, line {reader.line_num}: "
                            f"{len(record)} fields where the header has "
                            f"{len(fields)}"
                        )
                    values: list = [None] * len(rs)
                    for (pos, read), text in zip(fields, record):
                        values[pos] = read(text)
                    rows.append(tuple(values))
        data[rs.name] = rows
    return Database.from_rows(
        schema,
        data,
        enforce_foreign_keys=enforce_foreign_keys,
        create_indexes=create_indexes,
        backend=backend,
    )
