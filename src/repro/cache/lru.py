"""A bounded, versioned LRU cache with first-class statistics.

The building block of :mod:`repro.cache`: a plain-dict LRU (Python
dicts preserve insertion order; recency is maintained by re-inserting
on access) whose entries carry the *validity token* they were computed
under. A lookup must present the current token — an entry stored under
an older token is dropped on sight and counted as an **invalidation**,
which is how graph/index/data epochs (see :mod:`repro.cache.versions`)
turn mutation into cache eviction without any notification plumbing.

Bound: ``max_entries`` caps the entry count; a put past it evicts the
least-recently-used entry and counts an **eviction**.

One lock serializes every operation that reads or reorders the
entries, so threads may share a cache: the worker threads of a pool
over one engine, and the event loop that answers cached asks at
admission (:mod:`repro.service.frontdoor`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Hashable

__all__ = ["MISSING", "CacheStats", "LRUCache"]

#: sentinel returned by :meth:`LRUCache.get` when the key is absent or
#: stale (``None`` is a legitimate cached value)
MISSING = object()


@dataclass
class CacheStats:
    """Monotonic counters describing one cache's lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when the cache was never consulted)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def __repr__(self):
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, "
            f"invalidations={self.invalidations})"
        )


class LRUCache:
    """Versioned LRU mapping holding at most *max_entries* (positive)
    live entries."""

    def __init__(self, max_entries: int = 128):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        #: key -> (version, value), least recently used first
        self._entries: dict[Hashable, tuple[Hashable, Any]] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def holds(self, key: Hashable, version: Hashable = None) -> bool:
        """True iff a live entry (one stored at *version*) sits under
        *key*. Counts no lookup, drops nothing and leaves recency
        alone: a :meth:`get` that follows does all three."""
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry[0] == version

    def get(self, key: Hashable, version: Hashable = None) -> Any:
        """The live value under *key*, or :data:`MISSING`.

        An entry stored under a different *version* is stale: it is
        removed, counted as an invalidation, and the lookup is a miss.
        A hit refreshes the entry's recency.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return MISSING
            if entry[0] != version:
                del self._entries[key]
                self.stats.invalidations += 1
                self.stats.misses += 1
                return MISSING
            # refresh recency: move to the most-recent end
            del self._entries[key]
            self._entries[key] = entry
            self.stats.hits += 1
            return entry[1]

    # ------------------------------------------------------------- writes

    def put(self, key: Hashable, value: Any, version: Hashable = None) -> None:
        """Store *value* under *key* at *version* as the most recent
        entry, evicting the least-recently-used one past the bound."""
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = (version, value)
            if len(self._entries) > self.max_entries:
                del self._entries[next(iter(self._entries))]
                self.stats.evictions += 1

    def clear(self) -> int:
        """Drop every entry (each counted as an invalidation); returns
        the number dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.stats.invalidations += dropped
            return dropped

    def __repr__(self):
        return (
            f"LRUCache({len(self)} live, bound {self.max_entries} entries, "
            f"{self.stats!r})"
        )
