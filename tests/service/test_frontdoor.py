"""AsyncFrontDoor core mechanics: answers, config, metrics, lifecycle.

Coalescing coherence, deadline semantics and priority scheduling have
their own batteries (test_frontdoor_coalesce / _deadline / _priority);
this file covers the basic contract: answers match the engine,
arguments flow through, errors propagate without wedging the loop,
metrics and traces account correctly, and close() drains.
"""

import asyncio

import pytest

from repro.core import PrecisEngine, WeightThreshold
from repro.datasets import movies_graph, paper_instance
from repro.obs import TraceBuffer
from repro.service import (
    AsyncFrontDoor,
    FrontDoorConfig,
    PrecisService,
    ServiceClosed,
    ServiceConfig,
)

from .helpers import run

QUERY = '"Woody Allen"'


@pytest.fixture()
def engine():
    return PrecisEngine(paper_instance(), graph=movies_graph())


@pytest.fixture()
def service(engine):
    svc = PrecisService(engine, config=ServiceConfig(workers=2))
    yield svc
    svc.close()


def counter(frontdoor, name, **labels):
    return frontdoor.metrics.registry.counter(name, "", **labels).value


class TestAnswers:
    def test_answer_matches_direct_engine(self, engine, service):
        async def go():
            frontdoor = AsyncFrontDoor(service)
            try:
                return await frontdoor.submit(
                    QUERY, degree=WeightThreshold(0.5)
                )
            finally:
                await frontdoor.close()

        served = run(go())
        direct = engine.ask(QUERY, degree=WeightThreshold(0.5))
        assert served.to_dict() == direct.to_dict()
        assert not served.degraded

    def test_ask_is_submit_alias(self, service):
        async def go():
            async with AsyncFrontDoor(service) as frontdoor:
                return await frontdoor.ask(QUERY)

        assert run(go()).found

    def test_ask_kwargs_are_forwarded(self, service):
        async def go():
            async with AsyncFrontDoor(service) as frontdoor:
                return await frontdoor.submit(QUERY, translate=False)

        assert run(go()).narrative is None

    def test_engine_error_propagates_and_frontdoor_survives(self, service):
        async def go():
            async with AsyncFrontDoor(service) as frontdoor:
                with pytest.raises(TypeError):
                    await frontdoor.submit(QUERY, no_such_kwarg=True)
                # the dispatcher is still alive and serving
                answer = await frontdoor.submit(QUERY)
                failures = counter(
                    frontdoor,
                    "precis_service_failures_total",
                    kind="TypeError",
                )
                return answer, failures

        answer, failures = run(go())
        assert answer.found
        assert failures == 1

    def test_uncoalescable_ask_still_answers(self, service):
        # a tuple_weigher has no canonical signature -> never coalesced,
        # but the request must flow through normally
        from repro.core.value_weights import CallableWeigher

        async def go():
            async with AsyncFrontDoor(service) as frontdoor:
                return await frontdoor.submit(
                    QUERY,
                    tuple_weigher=CallableWeigher(
                        lambda relation, tup: 1.0
                    ),
                )

        assert run(go()).found

    def test_invalid_priority_rejected(self, service):
        async def go():
            async with AsyncFrontDoor(service) as frontdoor:
                with pytest.raises(ValueError, match="priority"):
                    await frontdoor.submit(QUERY, priority="urgent")

        run(go())


class TestConfig:
    def test_max_pending_validated(self):
        with pytest.raises(ValueError):
            FrontDoorConfig(max_pending=0)

    def test_default_dispatch_concurrency_is_worker_count(self, service):
        async def go():
            frontdoor = AsyncFrontDoor(service)
            try:
                await frontdoor.submit(QUERY)
                return len(frontdoor._dispatchers)
            finally:
                await frontdoor.close()

        assert run(go()) == service.workers == 2


class TestMetricsAndTraces:
    def test_waiter_accounting(self, service):
        async def go():
            async with AsyncFrontDoor(service) as frontdoor:
                await frontdoor.submit(QUERY)
                await frontdoor.submit(QUERY, priority="batch")
                snap = frontdoor.metrics.snapshot()
                return frontdoor, snap

        frontdoor, snap = run(go())
        counters = snap["counters"]
        assert (
            counters['precis_service_requests_total{priority="interactive"}']
            == 1
        )
        assert (
            counters['precis_service_requests_total{priority="batch"}'] == 1
        )
        assert counters["precis_service_executions_total"] == 2
        assert (
            counters['precis_service_answered_total{priority="batch"}'] == 1
        )
        histogram = [
            key
            for key in snap["histograms"]
            if key.startswith("precis_service_seconds")
        ]
        assert histogram, "latency histogram missing"

    def test_pending_gauge_returns_to_zero(self, service):
        async def go():
            async with AsyncFrontDoor(service) as frontdoor:
                await asyncio.gather(
                    *(frontdoor.submit(QUERY) for _ in range(6))
                )
                return frontdoor.pending(), frontdoor.metrics.inflight.value

        assert run(go()) == (0, 0)

    def test_shared_registry_with_service(self, service):
        async def go():
            async with AsyncFrontDoor(service) as frontdoor:
                assert frontdoor.metrics is service.metrics
                await frontdoor.submit(QUERY)
                return frontdoor.metrics.prometheus()

        text = run(go())
        # one family: admission (front door) and execution (pool)
        assert "precis_service_requests_total" in text
        assert "precis_service_executions_total" in text

    def test_leader_trace_comes_from_service_with_frontdoor_context(
        self, engine
    ):
        traces = TraceBuffer(capacity=16, sample_rate=1.0)
        service = PrecisService(
            engine, config=ServiceConfig(workers=1), traces=traces
        )

        async def go():
            async with AsyncFrontDoor(service) as frontdoor:
                await frontdoor.submit(QUERY, priority="batch")

        try:
            run(go())
        finally:
            service.close()
        kept = traces.traces()
        assert len(kept) == 1  # one trace for the whole journey
        trace = kept[0]
        assert trace.outcome == "answered"
        assert trace.context.priority == "batch"
        assert trace.coalesced_into is None
        # the span tree is the service's full request tree, under the
        # context the front door minted at its own admission time
        assert trace.stage_names()[0] == "request"
        assert "queue" in trace.stage_names()


class TestLifecycle:
    def test_submit_after_close_sheds_closed(self, service):
        async def go():
            frontdoor = AsyncFrontDoor(service)
            await frontdoor.close()
            with pytest.raises(ServiceClosed):
                await frontdoor.submit(QUERY)
            return counter(
                frontdoor,
                "precis_service_shed_total",
                reason="closed",
                priority="interactive",
            )

        assert run(go()) == 1

    def test_close_is_idempotent(self, service):
        async def go():
            frontdoor = AsyncFrontDoor(service)
            await frontdoor.submit(QUERY)
            await frontdoor.close()
            await frontdoor.close()
            assert frontdoor.closed

        run(go())

    def test_close_can_close_service(self, engine):
        service = PrecisService(engine, config=ServiceConfig(workers=1))

        async def go():
            frontdoor = AsyncFrontDoor(service)
            await frontdoor.submit(QUERY)
            await frontdoor.close(close_service=True)

        run(go())
        assert service.closed

    def test_close_without_any_submit(self, service):
        async def go():
            frontdoor = AsyncFrontDoor(service)
            await frontdoor.close()

        run(go())

    def test_repr(self, service):
        async def go():
            frontdoor = AsyncFrontDoor(service)
            await frontdoor.close()
            return repr(frontdoor)

        assert "closed" in run(go())
