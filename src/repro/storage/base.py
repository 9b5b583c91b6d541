"""The storage protocol: what the précis pipeline needs from a backend.

The paper's engine treats the source database as an abstract tuple and
index service: seed lookups through the inverted index, tid fetches
(``σ_Tids(R)[π(R)]``), IN-list probes for the executed join edges, and
per-driving-tuple scans for RoundRobin (§5.2). :class:`TupleStore`
captures exactly those primitives, so the relational layer can run over
any engine that can insert, delete, fetch-by-id, scan in id order and
probe by attribute value.

Division of labour
------------------

* :class:`~repro.relational.relation.Relation` (the façade) owns
  validation — type coercion and NOT NULL — plus
  :class:`~repro.relational.row.Row` construction and **all**
  :class:`~repro.relational.cost.CostMeter` charging. Stores never touch
  the meter; the modeled cost of a query is therefore identical across
  backends by construction.
* A :class:`TupleStore` works in *storage tuples*: full-width tuples of
  canonical Python values in schema order (what
  ``Relation._normalize`` produces). It assigns monotonically increasing
  integer tuple ids starting at 1 (never reused, even across
  :meth:`TupleStore.clear`), keeps the primary-key mapping and enforces
  it — each key is checked once, here, and the façade does not probe it
  first — and maintains any secondary indexes created through
  :meth:`TupleStore.create_index`.
* A :class:`StorageBackend` is the per-database factory: one store per
  relation schema, sharing whatever resources the backend needs (the
  SQLite backend shares one connection across all relations of a
  database).

Equality semantics
------------------

``lookup``/``lookup_in``/``lookup_pk``/``distinct_values`` must match
the in-memory reference semantics: Python ``==`` between the canonical
stored value and the probe (so ``2005.0`` matches an INT ``2005``, and a
``None`` probe matches NULLs), and *no* cross-type coercion beyond that
(a string probe never matches an INT or DATE column). Backends that
store values in a foreign representation (SQLite stores dates as ISO
text) must guard their probes accordingly.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence

from ..relational.errors import RelationalError

if TYPE_CHECKING:  # import cycle: relational.relation builds on this module
    from ..relational.schema import RelationSchema

__all__ = [
    "TupleStore",
    "StorageBackend",
    "StorageError",
    "TransientStorageError",
    "PermanentStorageError",
]


class StorageError(RelationalError):
    """A backend failed to execute a storage operation.

    Distinct from the *semantic* errors of
    :mod:`repro.relational.errors` (constraint violations, unknown
    tuples — those describe the data); a StorageError describes the
    *infrastructure*. The split into transient vs. permanent is what the
    serving layer's retry policy keys on (:mod:`repro.service.retry`).
    """


class TransientStorageError(StorageError):
    """A failure that may succeed on retry (lock contention, busy
    database, interrupted I/O). The serving layer retries these with
    backoff."""


class PermanentStorageError(StorageError):
    """A failure retrying cannot fix (corrupt file, schema mismatch,
    disk full). Surfaced to the caller immediately."""


class TupleStore(abc.ABC):
    """Tid-addressed tuple storage for one relation.

    Concrete stores receive the :class:`RelationSchema` at construction
    and expose it as :attr:`schema`.
    """

    schema: RelationSchema

    # ------------------------------------------------------------- writes

    @abc.abstractmethod
    def insert(self, stored: tuple) -> int:
        """Store one full-width canonical tuple; return its new tid.

        The façade has already validated types and NOT NULL. The store
        enforces the primary key: a tuple whose key another tuple holds
        raises :class:`~repro.relational.errors.PrimaryKeyViolation`
        naming the relation and the key, and leaves the store as it was
        (no tid consumed, no index touched).
        """

    @abc.abstractmethod
    def update(self, tid: int, stored: tuple) -> None:
        """Replace the full-width canonical tuple at *tid* **in place**:
        the tid is preserved, so references held elsewhere (inbound
        foreign keys, inverted-index postings) stay addressable. Raise
        :class:`~repro.relational.errors.UnknownTupleError` if absent.
        The façade has already validated types and NOT NULL. The store
        enforces the primary key against every *other* tuple (raising
        :class:`~repro.relational.errors.PrimaryKeyViolation` and
        changing nothing) and keeps the pk mapping and any secondary
        indexes coherent.
        """

    @abc.abstractmethod
    def delete(self, tid: int) -> None:
        """Remove one tuple; raise
        :class:`~repro.relational.errors.UnknownTupleError` if absent."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Remove every tuple (indexes stay defined; tids are not reused)."""

    # ------------------------------------------------------------- reads

    @abc.abstractmethod
    def get(self, tid: int) -> Optional[tuple]:
        """The full-width stored tuple for *tid*, or None if absent."""

    @abc.abstractmethod
    def get_many(self, tids: Sequence[int]) -> dict[int, tuple]:
        """Batch :meth:`get`: tid → stored tuple, absent tids omitted."""

    @abc.abstractmethod
    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Yield ``(tid, stored)`` pairs in ascending tid order."""

    @abc.abstractmethod
    def tids(self) -> Iterator[int]:
        """All tids in ascending order."""

    @abc.abstractmethod
    def __len__(self) -> int: ...

    def __contains__(self, tid: int) -> bool:
        return self.get(tid) is not None

    # ------------------------------------------------------------- probes

    @abc.abstractmethod
    def lookup(self, attribute: str, value: Any) -> set[int]:
        """Tids whose *attribute* equals *value* (None matches NULLs)."""

    @abc.abstractmethod
    def lookup_in(self, attribute: str, values: Iterable[Any]) -> set[int]:
        """Tids whose *attribute* equals any of *values* (IN-list probe)."""

    @abc.abstractmethod
    def lookup_pk(self, key: tuple) -> Optional[int]:
        """Tid of the tuple whose primary key equals *key* (a tuple of
        values in primary-key column order), or None."""

    @abc.abstractmethod
    def distinct_values(self, attribute: str) -> set[Any]:
        """All distinct non-NULL values of *attribute*."""

    # ------------------------------------------------------------- indexes

    @abc.abstractmethod
    def create_index(self, attribute: str) -> None:
        """Build (or rebuild) a secondary equality index on *attribute*:
        it serves :meth:`lookup`, :meth:`lookup_in` and
        :meth:`distinct_values` without changing their results."""

    @abc.abstractmethod
    def has_index(self, attribute: str) -> bool: ...

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release per-store resources (no-op by default)."""


class StorageBackend(abc.ABC):
    """Factory for the stores of one database.

    ``Database`` asks its backend for one store per relation schema and
    calls :meth:`close` when the database is closed. Backends own any
    shared resources (files, connections).
    """

    #: short machine-readable backend name ("memory", "sqlite", ...)
    name: str = "?"

    @abc.abstractmethod
    def create_store(self, schema: RelationSchema) -> TupleStore: ...

    def close(self) -> None:
        """Release backend resources (no-op by default)."""

    def __repr__(self):
        return f"{type(self).__name__}()"
