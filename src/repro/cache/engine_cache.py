"""Engine-facing cache layers: configuration, canonical keys, stats.

Two layers sit in front of the précis pipeline (see
:class:`repro.core.engine.PrecisEngine`):

* the **plan cache** memoizes result schemas — the §5.1 Result Schema
  Generator output — keyed by the *canonical* (sorted token relations,
  degree constraint) pair, valid for one graph version;
* the **answer cache** (opt-in) memoizes whole
  :class:`~repro.core.answer.PrecisAnswer` objects keyed by the full
  query signature, valid for one (data, index, graph) epoch triple —
  a hit short-circuits ``ask`` entirely.

Both are :class:`~repro.cache.lru.LRUCache` instances, so hit / miss /
eviction / invalidation counters come for free and mutation-driven
invalidation follows the token contract of :mod:`repro.cache.versions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .lru import LRUCache

__all__ = [
    "CacheConfig",
    "EngineCache",
    "plan_key",
    "answer_key",
]


# ------------------------------------------------------------------ keys


def plan_key(
    token_relations: Iterable[str], degree, fingerprint: Optional[str] = None
) -> tuple:
    """Canonical plan-cache key.

    Token relations are *sorted and deduplicated*: the result schema is
    a function of the relation **set** (plus the degree constraint), so
    ``("movies", "actors")`` and ``("actors", "movies")`` must share one
    entry — the discovery-ordered key of the old ad-hoc cache treated
    them as distinct and answered the same query twice.

    *fingerprint* is the canonical weight fingerprint of the graph the
    plan is generated over (:func:`repro.graph.weight_fingerprint`):
    ``None`` for the engine's base graph, the overlay digest for a
    tenant's :class:`~repro.graph.overlay.WeightOverlay`. Tenants whose
    effective weights coincide therefore share one plan entry; the base
    graph and every distinct overlay get disjoint entries in the same
    cache.
    """
    return (tuple(sorted(set(token_relations))), degree, fingerprint)


def answer_key(
    query,
    degree,
    cardinality,
    strategy: str,
    fingerprint: Optional[str],
    translate: bool,
    path_scoped: bool,
) -> tuple:
    """Canonical answer-cache key for one ``ask`` signature.

    *fingerprint* is the canonical weight fingerprint of the effective
    graph (profile weights + query-time overrides flattened into one
    overlay — see :func:`repro.graph.weight_fingerprint`). Keying on
    the fingerprint instead of the profile identity means (a) a mutated
    registered profile can never serve its old answer (its weights, and
    hence the digest, changed) and (b) two tenants whose overlays
    coincide share one cached answer, while an ε-different weight
    splits them. Profile default constraints are already resolved into
    *degree*/*cardinality* by the engine before this is called. Raises
    TypeError if any component is unhashable (callers treat that as
    uncacheable).
    """
    key = (
        query.tokens,
        degree,
        cardinality,
        strategy,
        fingerprint,
        bool(translate),
        bool(path_scoped),
    )
    hash(key)  # surface unhashable constraints to the caller
    return key


# ------------------------------------------------------------------ config


@dataclass(frozen=True)
class CacheConfig:
    """What to cache and how much of it to keep. Result schemas are
    always memoized (cheap to hold, safe under the epoch contract)."""

    #: memoize whole answers (opt-in: answers can be large)
    answers: bool = False
    plan_entries: int = 256
    answer_entries: int = 128

    def __post_init__(self):
        if self.plan_entries <= 0:
            raise ValueError("plan_entries must be positive")
        if self.answer_entries <= 0:
            raise ValueError("answer_entries must be positive")


class EngineCache:
    """The two cache layers of one :class:`PrecisEngine`, plus stats."""

    def __init__(self, config: Optional[CacheConfig] = None):
        self.config = config or CacheConfig()
        self.plans = LRUCache(self.config.plan_entries)
        self.answers: Optional[LRUCache] = (
            LRUCache(self.config.answer_entries)
            if self.config.answers
            else None
        )

    def clear(self) -> int:
        """Drop every cached plan and answer; returns entries dropped."""
        dropped = 0
        for cache in (self.plans, self.answers):
            if cache is not None:
                dropped += cache.clear()
        return dropped

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-layer counter snapshot: ``{"plans": {...}, "answers": {...}}``."""
        out = {"plans": self.plans.stats.as_dict()}
        if self.answers is not None:
            out["answers"] = self.answers.stats.as_dict()
        return out

    def __repr__(self):
        layers = [f"plans={len(self.plans)}"]
        if self.answers is not None:
            layers.append(f"answers={len(self.answers)}")
        return f"EngineCache({', '.join(layers)})"
