"""repro.cache — versioned, invalidation-aware caching.

The subsystem that makes repeated précis traffic cheap *and* correct
under live updates. The old ad-hoc plan cache was documented as "never
coherent with graph mutation"; this package replaces it with:

* :class:`LRUCache` — an entry-bounded LRU whose
  entries carry the validity token they were computed under, with
  hit / miss / eviction / invalidation counters
  (:class:`CacheStats`);
* :mod:`~repro.cache.versions` — validity tokens composed from the
  monotonic epochs on :class:`~repro.relational.database.Database`
  (``data_epoch``), :class:`~repro.text.inverted_index.InvertedIndex`
  (``epoch``) and :class:`~repro.graph.schema_graph.SchemaGraph`
  (``version``), so mutation invalidates by construction — there is no
  notification to lose;
* :class:`EngineCache` / :class:`CacheConfig` — the two layers wired
  into :class:`~repro.core.engine.PrecisEngine`: a plan cache keyed by
  canonical (sorted relations, degree) and an opt-in answer cache that
  short-circuits ``ask`` for repeated queries.

Quickstart::

    from repro import CacheConfig, PrecisEngine

    engine = PrecisEngine(db, cache=CacheConfig(answers=True))
    engine.ask('"Woody Allen"')   # cold: runs the pipeline
    engine.ask('"Woody Allen"')   # warm: served from the answer cache
    engine.cache.stats()          # {"plans": {...}, "answers": {...}}

See ``docs/caching.md`` for the coherence contract.
"""

from .engine_cache import (
    CacheConfig,
    EngineCache,
    answer_key,
    plan_key,
)
from .lru import MISSING, CacheStats, LRUCache
from .versions import answer_token, plan_token

__all__ = [
    "LRUCache",
    "CacheStats",
    "MISSING",
    "CacheConfig",
    "EngineCache",
    "plan_key",
    "answer_key",
    "plan_token",
    "answer_token",
]
