"""Warm vs cold asks under the versioned cache (repro.cache).

The caching subsystem's performance claim: once an ask has been
answered, repeating the same query signature against an unchanged
database is served from the answer cache at a fraction of the cold
cost — and a single mutation through any epoch-bumping API restores
cold behavior for exactly one ask (the entry is re-validated, not
left stale). The speedup assertion runs on best-of-N wall times so it
holds on noisy CI machines.
"""

from __future__ import annotations

import time

import pytest

from repro import MaxTuplesPerRelation, PrecisEngine
from repro.cache import CacheConfig
from repro.datasets import generate_movies_database, movies_graph

QUERIES = ("midnight", "drama", "crimson harbor", "garcia", "thriller")
CARDINALITY = MaxTuplesPerRelation(10)


@pytest.fixture(scope="module")
def movies_db():
    return generate_movies_database(n_movies=300, seed=7)


def _engine(db, cache=None):
    return PrecisEngine(db, graph=movies_graph(), cache=cache)


def _ask_all(engine):
    for query in QUERIES:
        engine.ask(query, cardinality=CARDINALITY)


def _best_of(fn, repeat=5):
    best = float("inf")
    for __ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_cold_ask(benchmark, movies_db):
    benchmark.group = "warm vs cold ask (300-movie db)"
    engine = _engine(movies_db)
    answer = benchmark(
        engine.ask, QUERIES[0], cardinality=CARDINALITY
    )
    assert answer.found


def test_warm_plan_cache(benchmark, movies_db):
    benchmark.group = "warm vs cold ask (300-movie db)"
    engine = _engine(movies_db, CacheConfig(answers=False))
    _ask_all(engine)  # prime
    answer = benchmark(engine.ask, QUERIES[0], cardinality=CARDINALITY)
    assert answer.found
    assert engine.cache_stats()["plans"]["hits"] > 0


def test_warm_answer_cache(benchmark, movies_db):
    benchmark.group = "warm vs cold ask (300-movie db)"
    engine = _engine(movies_db, cache=True)
    _ask_all(engine)  # prime
    answer = benchmark(engine.ask, QUERIES[0], cardinality=CARDINALITY)
    assert answer.found
    assert engine.cache_stats()["answers"]["hits"] > 0
    assert engine.cache_stats()["answers"]["evictions"] == 0


def test_warm_speedup_at_least_5x(movies_db):
    """The headline number: repeated asks >= 5x faster with the answer

    cache than without, same queries, same database."""
    cold_engine = _engine(movies_db)
    warm_engine = _engine(movies_db, cache=True)
    _ask_all(warm_engine)  # prime

    cold = _best_of(lambda: _ask_all(cold_engine))
    warm = _best_of(lambda: _ask_all(warm_engine))
    assert warm > 0
    speedup = cold / warm
    assert speedup >= 5.0, f"warm speedup only {speedup:.1f}x"


def test_mutation_restores_cold_path_once(movies_db):
    """One insert = one invalidation per touched entry, then warm again."""
    engine = _engine(movies_db, cache=True)
    _ask_all(engine)
    _ask_all(engine)  # all hits now
    hits_before = engine.cache_stats()["answers"]["hits"]
    assert hits_before >= len(QUERIES)

    movies_db.insert(
        "GENRE", {"MID": 1, "GENRE": "Noir"}
    )  # bumps data_epoch -> every answer entry is now stale
    _ask_all(engine)  # re-validates: misses, not stale hits
    stats = engine.cache_stats()["answers"]
    assert stats["invalidations"] >= len(QUERIES)
    assert stats["hits"] == hits_before

    _ask_all(engine)  # warm again under the new epoch
    assert engine.cache_stats()["answers"]["hits"] >= hits_before + len(
        QUERIES
    )
