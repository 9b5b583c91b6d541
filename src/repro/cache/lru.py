"""A bounded, versioned LRU cache with first-class statistics.

The building block of :mod:`repro.cache`: a plain-dict LRU (Python
dicts preserve insertion order; recency is maintained by re-inserting
on access) whose entries carry the *validity token* they were computed
under. A lookup must present the current token — an entry stored under
an older token is dropped on sight and counted as an **invalidation**,
which is how graph/index/data epochs (see :mod:`repro.cache.versions`)
turn mutation into cache eviction without any notification plumbing.

Bounds: ``max_entries`` caps the entry count; ``max_bytes`` (optional)
caps the sum of per-entry sizes as reported by the ``sizer`` callable.
Both bounds evict least-recently-used entries first and count
**evictions**. Sizes are estimates — the byte bound exists to keep an
answer cache from hoarding arbitrarily large result databases, not to
account memory exactly.

One lock serializes every operation that reads or reorders the
entries, so threads may share a cache: the worker threads of a pool
over one engine, and the event loop that answers cached asks at
admission (:mod:`repro.service.frontdoor`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

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


class _Entry:
    __slots__ = ("version", "value", "size")

    def __init__(self, version: Hashable, value: Any, size: int):
        self.version = version
        self.value = value
        self.size = size


class LRUCache:
    """Versioned LRU mapping with entry- and byte-count bounds.

    Parameters
    ----------
    max_entries:
        Maximum number of live entries (must be positive).
    max_bytes:
        Optional cap on the summed ``sizer`` estimates of live values.
        A single value larger than the whole budget is simply not
        cached.
    sizer:
        ``value -> int`` size estimator; only consulted when
        *max_bytes* is set. Defaults to counting every value as 1 (so a
        bare *max_bytes* degenerates into a second entry bound).
    """

    def __init__(
        self,
        max_entries: int = 128,
        max_bytes: Optional[int] = None,
        sizer: Optional[Callable[[Any], int]] = None,
    ):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._sizer = sizer or (lambda value: 1)
        self._entries: dict[Hashable, _Entry] = {}
        self._bytes = 0
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # ------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def current_bytes(self) -> int:
        """Summed size estimates of the live entries."""
        return self._bytes

    def holds(self, key: Hashable, version: Hashable = None) -> bool:
        """True iff a live entry (one stored at *version*) sits under
        *key*. Counts no lookup, drops nothing and leaves recency
        alone: a :meth:`get` that follows does all three."""
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry.version == version

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
            if entry.version != version:
                self._remove(key, entry)
                self.stats.invalidations += 1
                self.stats.misses += 1
                return MISSING
            # refresh recency: move to the most-recent end
            del self._entries[key]
            self._entries[key] = entry
            self.stats.hits += 1
            return entry.value

    # ------------------------------------------------------------- writes

    def put(self, key: Hashable, value: Any, version: Hashable = None) -> None:
        """Store *value* under *key* at *version*, evicting LRU entries
        as needed to respect both bounds."""
        size = self._sizer(value) if self.max_bytes is not None else 0
        if self.max_bytes is not None and size > self.max_bytes:
            return  # would evict everything and still not fit
        with self._lock:
            old = self._entries.get(key)
            if old is not None:
                self._remove(key, old)
            self._entries[key] = _Entry(version, value, size)
            self._bytes += size
            while len(self._entries) > self.max_entries or (
                self.max_bytes is not None and self._bytes > self.max_bytes
            ):
                lru_key = next(iter(self._entries))
                self._remove(lru_key, self._entries[lru_key])
                self.stats.evictions += 1

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; returns True iff it existed."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            self._remove(key, entry)
            self.stats.invalidations += 1
            return True

    def clear(self) -> int:
        """Drop every entry (each counted as an invalidation); returns
        the number dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            self.stats.invalidations += dropped
            return dropped

    def _remove(self, key: Hashable, entry: _Entry) -> None:
        # callers hold self._lock
        del self._entries[key]
        self._bytes -= entry.size

    def __repr__(self):
        bound = f"{self.max_entries} entries"
        if self.max_bytes is not None:
            bound += f", {self.max_bytes} bytes"
        return f"LRUCache({len(self)} live, bound {bound}, {self.stats!r})"
