"""N-tenant concurrency stress: one shared stack, per-tenant overlays.

Extends the 8×50 single-graph stress harness (``test_stress.py``) with
tenancy: every client is a tenant carrying its own weight overlay.
Tenants deliberately collide — four share overlay A, three share
overlay B, and one runs an ε-nudged copy of A — so the run
exercises cross-tenant cache *sharing* (identical overlays, one plan
entry) and cache *isolation* (the ε tenant never sees A's answers) at
full concurrency. Every answer must be byte-coherent with a fresh
single-threaded engine over the equivalent materialized graph.
"""

import asyncio
import json

import pytest

from repro.cache import CacheConfig
from repro.core import PrecisEngine, WeightThreshold
from repro.datasets import generate_movies_database, movies_graph
from repro.service import (
    AsyncFrontDoor,
    FrontDoorConfig,
    PrecisService,
    ServiceConfig,
    TenantQuotaExceeded,
)
from repro.storage import BACKEND_NAMES

from .helpers import run

ASKS_PER_TENANT = 25
QUERIES = ["midnight", "drama", "garcia", "thriller", "comedy"]
DEGREE = 0.5

OVERLAY_A = {
    ("proj", "MOVIE", "TITLE"): 0.55,
    ("join", "MOVIE", "GENRE"): 0.45,
}
OVERLAY_B = {
    ("proj", "ACTOR", "ANAME"): 0.6,
    ("proj", "MOVIE", "YEAR"): 0.35,
}
OVERLAY_A_EPS = {
    ("proj", "MOVIE", "TITLE"): 0.55 + 1e-12,
    ("join", "MOVIE", "GENRE"): 0.45,
}

#: tenant name -> its overlay (the tenant population of the run)
TENANTS = {
    "a0": OVERLAY_A,
    "a1": OVERLAY_A,
    "a2": OVERLAY_A,
    "a3": OVERLAY_A,
    "b0": OVERLAY_B,
    "b1": OVERLAY_B,
    "b2": OVERLAY_B,
    "eps": OVERLAY_A_EPS,
}


def canonical(answer):
    """Answer bytes, cost included (each ask is charged only its own
    thread's reads)."""
    return json.dumps(answer.to_dict(), sort_keys=True)


def reference_answers(backend):
    """Per-(tenant, query) oracle: fresh single-threaded engines over
    fully materialized per-tenant graphs."""
    db = generate_movies_database(n_movies=80, seed=11, backend=backend)
    base = movies_graph()
    expected = {}
    for tenant, overlay in TENANTS.items():
        engine = PrecisEngine(db, graph=base.with_weights(overlay))
        for query in QUERIES:
            expected[(tenant, query)] = canonical(
                engine.ask(query, degree=WeightThreshold(DEGREE))
            )
    return expected


def run_tenant_stress(service):
    """One closed-loop client per tenant through one front door."""
    results = {}
    errors = []

    async def client(frontdoor, tenant, overlay):
        for i in range(ASKS_PER_TENANT):
            query = QUERIES[(sum(map(ord, tenant)) + i) % len(QUERIES)]
            try:
                answer = await frontdoor.submit(
                    query,
                    degree=WeightThreshold(DEGREE),
                    weights=overlay,
                    tenant=tenant,
                )
                results[(tenant, i)] = (query, answer)
            except BaseException as exc:  # noqa: BLE001 — collected
                errors.append((tenant, i, exc))

    async def go():
        async with AsyncFrontDoor(service) as frontdoor:
            await asyncio.wait_for(
                asyncio.gather(
                    *(
                        client(frontdoor, tenant, overlay)
                        for tenant, overlay in TENANTS.items()
                    )
                ),
                timeout=300,
            )
            return frontdoor

    return results, errors, run(go())


@pytest.mark.parametrize("stress_backend", BACKEND_NAMES)
class TestTenantStress:
    def test_shared_service_many_tenants(self, stress_backend):
        expected = reference_answers(stress_backend)
        db = generate_movies_database(
            n_movies=80, seed=11, backend=stress_backend
        )
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
            results, errors, frontdoor = run_tenant_stress(service)
            assert errors == []
            assert len(results) == len(TENANTS) * ASKS_PER_TENANT

            # every tenant's every answer byte-matches its own oracle —
            # in particular the ε tenant never received overlay A's
            # (cached) answers despite differing by one ULP
            for (tenant, i), (query, answer) in results.items():
                assert canonical(answer) == expected[(tenant, query)], (
                    f"incoherent answer for tenant {tenant!r}, "
                    f"query {query!r} (ask {i})"
                )

            # identical-overlay tenants shared plan entries: the caches
            # saw at most (#queries × #distinct overlays) misses per
            # engine, far below one miss per request
            distinct_overlays = 3  # A, B, A+ε
            plan_misses = sum(e.cache.plans.stats.misses for e in engines)
            assert plan_misses <= len(QUERIES) * distinct_overlays * len(
                engines
            )
            plan_hits = sum(e.cache.plans.stats.hits for e in engines)
            answer_hits = sum(e.cache.answers.stats.hits for e in engines)
            assert plan_hits + answer_hits > 0

            # bookkeeping: gauges drained, per-tenant counters add up
            assert service.metrics.inflight.value == 0
            registry = service.metrics.registry
            assert (
                registry.counter(
                    "precis_service_requests_total", priority="interactive"
                ).value
                == len(TENANTS) * ASKS_PER_TENANT
            )
            for tenant in TENANTS:
                assert (
                    registry.counter(
                        "precis_service_tenant_requests_total", tenant=tenant
                    ).value
                    == ASKS_PER_TENANT
                )
                assert frontdoor.tenant_inflight(tenant) == 0
        finally:
            service.close()

    def test_quota_sheds_conserve_requests(self, stress_backend):
        """With a tight per-tenant quota and bursty (fire-then-gather)
        clients, every attempt either resolves or is shed with
        TenantQuotaExceeded — nothing lost, nothing double-counted, all
        slots returned. Coalescing is off so each attempt is its own
        flight and the quota sheds count one per caller."""
        db = generate_movies_database(
            n_movies=80, seed=11, backend=stress_backend
        )
        engine = PrecisEngine(db, graph=movies_graph())
        # more workers than slots: a tenant's second flight can reach
        # dispatch while its first still runs
        service = PrecisService(engine, config=ServiceConfig(workers=2))
        config = FrontDoorConfig(tenant_slots=1, coalesce=False)
        answered = []
        quota_sheds = []
        errors = []

        async def bursty_client(frontdoor, tenant, overlay):
            attempts = [
                frontdoor.submit(
                    QUERIES[i % len(QUERIES)],
                    degree=WeightThreshold(DEGREE),
                    weights=overlay,
                    tenant=tenant,
                )
                for i in range(ASKS_PER_TENANT)  # burst: no waiting between
            ]
            for i, outcome in enumerate(
                await asyncio.gather(*attempts, return_exceptions=True)
            ):
                if isinstance(outcome, TenantQuotaExceeded):
                    quota_sheds.append((tenant, i))
                elif isinstance(outcome, BaseException):
                    errors.append((tenant, i, outcome))
                else:
                    answered.append(outcome)

        async def go():
            async with AsyncFrontDoor(service, config) as frontdoor:
                await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            bursty_client(frontdoor, tenant, overlay)
                            for tenant, overlay in TENANTS.items()
                        )
                    ),
                    timeout=300,
                )
                return frontdoor

        try:
            frontdoor = run(go())

            assert errors == []
            # a 1-slot quota against a 25-deep burst must actually shed
            assert quota_sheds
            assert (
                len(answered) + len(quota_sheds)
                == len(TENANTS) * ASKS_PER_TENANT
            )
            registry = service.metrics.registry
            shed_total = sum(
                registry.counter(
                    "precis_service_tenant_shed_total",
                    tenant=tenant,
                    reason="tenant_quota",
                ).value
                for tenant in TENANTS
            )
            assert shed_total == len(quota_sheds)
            assert (
                registry.counter(
                    "precis_service_answered_total", priority="interactive"
                ).value
                == len(answered)
            )
            for tenant in TENANTS:
                assert frontdoor.tenant_inflight(tenant) == 0
            assert service.metrics.inflight.value == 0
            assert service.metrics.pending.value == 0
        finally:
            service.close()
