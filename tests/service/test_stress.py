"""Concurrency stress: one shared serving stack, many clients.

8 closed-loop clients × 50 mixed asks through one front door over a
shared worker pool, over both storage backends. Every request must
resolve exactly once (no lost or duplicated responses), the in-flight
gauges must return to zero, and every served answer must be
byte-coherent — cost included — with what a fresh single-threaded
engine computes for the same query, whether it came out of the answer
cache, a coalesced flight or a full pipeline run.
"""

import asyncio
import json

import pytest

from repro.cache import CacheConfig
from repro.core import PrecisEngine, WeightThreshold
from repro.datasets import generate_movies_database, movies_graph
from repro.service import AsyncFrontDoor, PrecisService, ServiceConfig
from repro.storage import BACKEND_NAMES

from .helpers import run

CLIENTS = 8
ASKS_PER_CLIENT = 50
QUERIES = ["midnight", "drama", "garcia", "thriller", "comedy"]
DEGREE = 0.5


def canonical(answer):
    """Answer bytes for coherence comparison. The cost block is part
    of it: each ask is charged only the reads of its own thread, so
    concurrent asks report exactly their serial cost."""
    return json.dumps(answer.to_dict(), sort_keys=True)


def reference_answers(backend):
    """What a fresh, single-threaded engine says — the coherence oracle."""
    db = generate_movies_database(n_movies=80, seed=11, backend=backend)
    engine = PrecisEngine(db, graph=movies_graph())
    return {
        q: canonical(engine.ask(q, degree=WeightThreshold(DEGREE)))
        for q in QUERIES
    }


def run_stress(service):
    """Drive the stack from CLIENTS closed-loop clients (each awaits
    its answer before the next ask); returns results keyed by
    (client, sequence) so duplicates are impossible to miss and losses
    show up as missing keys."""
    results = {}
    errors = []

    async def client(frontdoor, cid):
        for i in range(ASKS_PER_CLIENT):
            query = QUERIES[(cid + i) % len(QUERIES)]
            try:
                answer = await frontdoor.submit(
                    query, degree=WeightThreshold(DEGREE)
                )
                results[(cid, i)] = (query, answer)
            except BaseException as exc:  # noqa: BLE001 — collected
                errors.append((cid, i, exc))

    async def go():
        async with AsyncFrontDoor(service) as frontdoor:
            await asyncio.wait_for(
                asyncio.gather(
                    *(client(frontdoor, cid) for cid in range(CLIENTS))
                ),
                timeout=300,
            )

    run(go())
    return results, errors


@pytest.mark.parametrize("stress_backend", BACKEND_NAMES)
class TestServiceStress:
    def test_shared_service_under_load(self, stress_backend):
        expected = reference_answers(stress_backend)
        db = generate_movies_database(
            n_movies=80, seed=11, backend=stress_backend
        )
        # worker-per-engine replicas: each engine (and its caches) is
        # only ever touched by its own worker thread
        engines = [
            PrecisEngine(
                db,
                graph=movies_graph(),
                cache=CacheConfig(plans=True, answers=True),
            )
            for __ in range(2)
        ]
        service = PrecisService(engines, config=ServiceConfig(workers=2))
        try:
            results, errors = run_stress(service)

            assert errors == []
            # no lost and no duplicated responses
            assert len(results) == CLIENTS * ASKS_PER_CLIENT
            assert set(results) == {
                (c, i)
                for c in range(CLIENTS)
                for i in range(ASKS_PER_CLIENT)
            }
            # cached == uncached == single-threaded reference, bytewise
            for (cid, i), (query, answer) in results.items():
                assert canonical(answer) == expected[query], (
                    f"incoherent answer for {query!r} "
                    f"(client {cid}, ask {i})"
                )

            # gauges back to zero, counters add up, nothing shed
            registry = service.metrics.registry
            assert (
                registry.counter(
                    "precis_service_requests_total", priority="interactive"
                ).value
                == CLIENTS * ASKS_PER_CLIENT
            )
            text = service.metrics.prometheus()
            assert "precis_service_inflight 0" in text
            assert "precis_service_pending 0" in text
            assert "precis_service_shed_total" not in text
            # the answer cache actually carried load: far fewer pipeline
            # runs than requests
            hits = sum(e.cache.answers.stats.hits for e in engines)
            assert hits > 0
        finally:
            service.close()

    def test_uncached_shared_engine_under_load(self, stress_backend):
        """One engine, several workers, caches off: the read-only hot
        path (index, graph, storage) served concurrently."""
        expected = reference_answers(stress_backend)
        db = generate_movies_database(
            n_movies=80, seed=11, backend=stress_backend
        )
        engine = PrecisEngine(db, graph=movies_graph())
        service = PrecisService(engine, config=ServiceConfig(workers=4))
        try:
            results, errors = run_stress(service)
            assert errors == []
            assert len(results) == CLIENTS * ASKS_PER_CLIENT
            for (cid, i), (query, answer) in results.items():
                assert canonical(answer) == expected[query]
            assert service.metrics.inflight.value == 0
        finally:
            service.close()
