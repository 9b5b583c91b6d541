"""Open-loop overload benchmark for the async front door.

The coalescing claim: a duplicate-heavy offered stream at ~2x the
stack's capacity is served with materially higher goodput when
identical in-flight asks share one execution. The gate replays the
*same* seeded Poisson schedule against two fresh stacks — coalescing
on, then off — through the load generator (``benchmarks/loadgen.py``) and
asserts the front door's own counters: a coalescing hit rate of at
least 0.4 at a 60% duplicate share, and at least 1.5x the goodput of
the uncoalesced arm. Best-of-N so the ratio holds on noisy CI
machines; the structured payload for EXPERIMENTS.md comes from
``run_experiments.py frontdoor`` (BENCH_precis.json under
``frontdoor``).
"""

from __future__ import annotations

import asyncio
import time

import pytest

from loadgen import LoadConfig, movies_workload, run_bench
from repro.service import AsyncFrontDoor, FrontDoorConfig

WORKERS = 2
DUPLICATE_FRACTION = 0.6
MIN_HIT_RATE = 0.4
MIN_GOODPUT_RATIO = 1.5


@pytest.fixture(scope="module")
def workload():
    return movies_workload(n_movies=200)


def _mean_ask_s(engine, queries) -> float:
    """Warm, then time one serial pass — the capacity estimate the
    offered load is scaled from."""
    for query in queries:
        engine.ask(query)
    start = time.perf_counter()
    for query in queries:
        engine.ask(query)
    return (time.perf_counter() - start) / len(queries)


def _overload_config(engine, queries, seed: int = 0) -> LoadConfig:
    mean_ask = _mean_ask_s(engine, queries)
    capacity = WORKERS / mean_ask  # closed-loop ceiling, req/s
    rate = 2.0 * capacity  # firmly past saturation
    return LoadConfig(
        arrival_rate=rate,
        # enough arrivals for stable rates without minute-long runs
        duration_s=min(2.0, max(0.5, 300.0 / rate)),
        duplicate_fraction=DUPLICATE_FRACTION,
        batch_fraction=0.25,
        deadline_ms=mean_ask * 1e3 * 50.0,
        seed=seed,
    )


def test_coalescing_goodput_gate(workload):
    """The headline number: >= 1.5x goodput and >= 40% coalescing hit
    rate at 2x capacity with a 60% duplicate share."""
    engine, queries = workload
    attempts = []
    for attempt in range(3):  # best-of-N: overload runs are noisy
        config = _overload_config(engine, queries, seed=attempt)
        payload = run_bench(engine, queries, config, workers=WORKERS)
        hit_rate = payload["coalesced"]["coalesce_hit_rate"]
        ratio = payload["goodput_ratio"]
        attempts.append((hit_rate, ratio))
        if hit_rate >= MIN_HIT_RATE and ratio >= MIN_GOODPUT_RATIO:
            return
    pytest.fail(
        f"coalescing gate missed in {len(attempts)} attempts "
        f"(hit_rate, goodput_ratio): {attempts}"
    )


def test_open_loop_accounts_for_every_arrival(workload):
    """Conservation: offered = answered + degraded + shed + failed in
    both arms, and the uncoalesced arm of an overloaded run sheds."""
    engine, queries = workload
    config = _overload_config(engine, queries)
    payload = run_bench(engine, queries, config, workers=WORKERS)
    for arm in ("coalesced", "uncoalesced"):
        outcomes = payload[arm]["outcomes"]
        assert sum(outcomes.values()) == payload[arm]["offered"]
        assert outcomes["failed"] == 0, payload[arm]["failures"]
    assert payload["uncoalesced"]["shed_rate"] > 0.0


def test_frontdoor_roundtrip(benchmark, workload):
    """Latency of one uncontended submit through the full front-door
    stack (dispatcher + pool worker + engine), warm cache path; each
    round starts and stops its own front door and pool."""
    engine, queries = workload
    benchmark.group = "front door round trip (200-movie db)"
    config = FrontDoorConfig(workers=WORKERS)

    def roundtrip():
        async def go():
            async with AsyncFrontDoor(engine, config) as frontdoor:
                for query in queries:
                    await frontdoor.submit(query)

        asyncio.run(go())

    benchmark(roundtrip)
