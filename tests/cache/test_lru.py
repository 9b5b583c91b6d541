"""Unit tests for the versioned LRU building block."""

import os
import sys
import threading

import pytest

from repro.cache import MISSING, LRUCache


class TestBasics:
    def test_miss_returns_sentinel_not_none(self):
        cache = LRUCache()
        assert cache.get("absent") is MISSING
        cache.put("k", None)
        assert cache.get("k") is None  # None is a legitimate value

    def test_hit_and_counters(self):
        cache = LRUCache()
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.get("other") is MISSING
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == 0.5

    def test_hit_rate_zero_without_lookups(self):
        assert LRUCache().stats.hit_rate == 0.0

    def test_put_overwrites(self):
        cache = LRUCache()
        cache.put("k", 1)
        cache.put("k", 2)
        assert cache.get("k") == 2
        assert len(cache) == 1

    def test_contains_and_len(self):
        cache = LRUCache()
        cache.put("a", 1)
        assert "a" in cache
        assert "b" not in cache
        assert len(cache) == 1

    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ValueError):
            LRUCache(max_entries=0)
        with pytest.raises(ValueError):
            LRUCache(max_bytes=0)


class TestVersioning:
    def test_stale_version_is_invalidating_miss(self):
        cache = LRUCache()
        cache.put("k", "old", version=1)
        assert cache.get("k", version=2) is MISSING
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 1
        assert "k" not in cache  # dropped, not kept around

    def test_matching_version_hits(self):
        cache = LRUCache()
        cache.put("k", "v", version=(3, 1, 4))
        assert cache.get("k", version=(3, 1, 4)) == "v"
        assert cache.stats.invalidations == 0

    def test_refill_after_invalidation(self):
        cache = LRUCache()
        cache.put("k", "old", version=1)
        cache.get("k", version=2)
        cache.put("k", "new", version=2)
        assert cache.get("k", version=2) == "new"

    def test_explicit_invalidate(self):
        cache = LRUCache()
        cache.put("k", 1)
        assert cache.invalidate("k") is True
        assert cache.invalidate("k") is False
        assert cache.stats.invalidations == 1

    def test_clear_counts_all_entries(self):
        cache = LRUCache()
        for i in range(5):
            cache.put(i, i)
        assert cache.clear() == 5
        assert len(cache) == 0
        assert cache.stats.invalidations == 5


class TestEviction:
    def test_lru_order_entry_bound(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: b is now the LRU
        cache.put("c", 3)
        assert "a" in cache
        assert "b" not in cache
        assert cache.stats.evictions == 1

    def test_byte_bound_evicts(self):
        cache = LRUCache(max_entries=100, max_bytes=10, sizer=len)
        cache.put("a", "xxxx")  # 4 bytes
        cache.put("b", "xxxx")  # 8
        cache.put("c", "xxxx")  # 12 -> evict a
        assert "a" not in cache
        assert cache.current_bytes == 8
        assert cache.stats.evictions == 1

    def test_oversized_value_not_cached(self):
        cache = LRUCache(max_bytes=10, sizer=len)
        cache.put("big", "x" * 11)
        assert "big" not in cache
        assert cache.current_bytes == 0
        assert cache.stats.evictions == 0  # nothing innocent was evicted

    def test_overwrite_adjusts_bytes(self):
        cache = LRUCache(max_bytes=100, sizer=len)
        cache.put("k", "x" * 30)
        cache.put("k", "x" * 5)
        assert cache.current_bytes == 5

    def test_bytes_tracked_through_invalidation(self):
        cache = LRUCache(max_bytes=100, sizer=len)
        cache.put("k", "x" * 30, version=1)
        cache.get("k", version=2)
        assert cache.current_bytes == 0


class TestSharedAcrossThreads:
    def test_concurrent_get_and_put_stay_consistent(self):
        """More threads than cores get-then-put over 32 keys into an
        8-entry cache, switching every microsecond so that they
        interleave inside ``get`` and ``put``. Unlocked, this raises (a
        dict changed size during eviction, or a KeyError) or loses an
        entry's bytes or a counted lookup."""
        cache = LRUCache(max_entries=8, max_bytes=1_000, sizer=len)
        n_threads = max(2, (os.cpu_count() or 1) + 1)
        rounds = 10_000
        errors = []

        def worker(offset):
            try:
                for i in range(rounds):
                    key = (i * 7 + offset) % 32
                    version = (i // 64) % 2
                    if cache.get(key, version) is MISSING:
                        cache.put(key, "x" * (key + 1), version)
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(3 * offset,))
                for offset in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) <= cache.max_entries
        live = [key for key in range(32) if key in cache]
        assert len(live) == len(cache)
        assert cache.current_bytes == sum(key + 1 for key in live)
        assert cache.stats.lookups == n_threads * rounds
