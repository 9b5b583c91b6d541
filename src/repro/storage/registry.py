"""Backend resolution: a name, a path or an instance → a
:class:`StorageBackend`.

Lives in its own module (not the package ``__init__``) so that
:mod:`repro.relational.database` can import :func:`resolve_backend`
without forcing the whole storage package — the two packages are
mutually referential and must bootstrap in either import order. The
built-in backends are imported lazily for the same reason.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .base import StorageBackend

__all__ = ["BACKEND_NAMES", "resolve_backend"]

#: the built-in backend names, for CLI choices and test parametrization
BACKEND_NAMES = ("memory", "sqlite")


def resolve_backend(
    spec: Union[str, StorageBackend, None] = None,
    path: Union[str, Path, None] = None,
) -> StorageBackend:
    """Turn a backend specification into a :class:`StorageBackend`.

    *spec* may be None (→ memory, or sqlite when *path* is given), a
    built-in name (``"memory"``, ``"sqlite"``), or an already-built
    :class:`StorageBackend` instance (returned as-is; *path* must then
    be None). A ``"sqlite:"``-prefixed spec carries the file path
    inline: ``"sqlite:/tmp/precis.db"``.
    """
    if spec is None:
        spec = "memory" if path is None else "sqlite"
    if isinstance(spec, StorageBackend):
        if path is not None:
            raise ValueError("path= cannot be combined with a backend instance")
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"backend must be a name or StorageBackend, got {type(spec).__name__}"
        )
    name = spec
    if ":" in spec:
        name, _, inline_path = spec.partition(":")
        if path is not None and inline_path:
            raise ValueError("path given both inline and as argument")
        path = path or (inline_path or None)
    if name == "memory":
        from .memory import MemoryBackend

        return MemoryBackend()
    if name == "sqlite":
        from .sqlite import SQLiteBackend

        return SQLiteBackend(path)
    known = ", ".join(BACKEND_NAMES)
    raise ValueError(f"unknown storage backend {name!r} (known: {known})")
