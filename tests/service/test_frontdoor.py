"""AsyncFrontDoor core mechanics: answers, config, metrics, lifecycle.

Coalescing coherence, deadline semantics and priority scheduling have
their own batteries (test_frontdoor_coalesce / _deadline / _priority);
this file covers the basic contract: answers match the engine,
arguments flow through, errors propagate without wedging the loop,
metrics and traces account correctly, and close() drains.
"""

import asyncio
import threading

import pytest

from repro.core import Deadline, PrecisEngine, WeightThreshold
from repro.datasets import movies_graph, paper_instance
from repro.obs import TraceBuffer
from repro.service import (
    AsyncFrontDoor,
    FrontDoorConfig,
    QueueFull,
    ServiceClosed,
    StaleRequest,
)

from .helpers import FakeClock, GateDeadline, entered, run, spin

QUERY = '"Woody Allen"'


@pytest.fixture()
def engine():
    return PrecisEngine(paper_instance(), graph=movies_graph())


#: the shape every test here runs unless it says otherwise
TWO_WORKERS = FrontDoorConfig(workers=2)


def counter(frontdoor, name, **labels):
    return frontdoor.metrics.registry.counter(name, "", **labels).value


class TestAnswers:
    def test_answer_matches_direct_engine(self, engine):
        async def go():
            frontdoor = AsyncFrontDoor(engine, TWO_WORKERS)
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

    def test_ask_kwargs_are_forwarded(self, engine):
        async def go():
            async with AsyncFrontDoor(engine, TWO_WORKERS) as frontdoor:
                return await frontdoor.submit(QUERY, translate=False)

        assert run(go()).narrative is None

    def test_engine_error_propagates_and_frontdoor_survives(self, engine):
        async def go():
            async with AsyncFrontDoor(engine, TWO_WORKERS) as frontdoor:
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

    def test_uncoalescable_ask_still_answers(self, engine):
        # a tuple_weigher has no canonical signature -> never coalesced,
        # but the request must flow through normally
        from repro.core.value_weights import CallableWeigher

        async def go():
            async with AsyncFrontDoor(engine, TWO_WORKERS) as frontdoor:
                return await frontdoor.submit(
                    QUERY,
                    tuple_weigher=CallableWeigher(
                        lambda relation, tup: 1.0
                    ),
                )

        assert run(go()).found

    def test_invalid_priority_rejected(self, engine):
        async def go():
            async with AsyncFrontDoor(engine, TWO_WORKERS) as frontdoor:
                with pytest.raises(ValueError, match="priority"):
                    await frontdoor.submit(QUERY, priority="urgent")

        run(go())


class TestConfig:
    def test_max_pending_validated(self):
        with pytest.raises(ValueError):
            FrontDoorConfig(max_pending=0)

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            FrontDoorConfig(workers=0)

    def test_nan_default_timeout_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            FrontDoorConfig(default_timeout_s=float("nan"))
        # negative (already expired) and infinite (never) stay valid
        assert FrontDoorConfig(default_timeout_s=-1.0).default_timeout_s < 0
        assert FrontDoorConfig(default_timeout_s=float("inf"))

    def test_default_dispatch_concurrency_is_worker_count(self, engine):
        frontdoor = AsyncFrontDoor(engine, TWO_WORKERS)

        async def go():
            try:
                await frontdoor.submit(QUERY)
                return len(frontdoor._dispatchers)
            finally:
                await frontdoor.close()

        assert run(go()) == len(frontdoor._pool._threads) == 2


class TestMetricsAndTraces:
    def test_waiter_accounting(self, engine):
        async def go():
            async with AsyncFrontDoor(engine, TWO_WORKERS) as frontdoor:
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

    def test_pending_gauge_returns_to_zero(self, engine):
        async def go():
            async with AsyncFrontDoor(engine, TWO_WORKERS) as frontdoor:
                await asyncio.gather(
                    *(frontdoor.submit(QUERY) for _ in range(6))
                )
                return frontdoor.pending(), frontdoor.metrics.inflight.value

        assert run(go()) == (0, 0)

    def test_shared_registry_with_service(self, engine):
        async def go():
            async with AsyncFrontDoor(engine, TWO_WORKERS) as frontdoor:
                # the pool records nothing: every series is the front
                # door's
                assert not hasattr(frontdoor._pool, "metrics")
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

        async def go():
            async with AsyncFrontDoor(engine, traces=traces) as frontdoor:
                await frontdoor.submit(QUERY, priority="batch")

        run(go())
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


class TestWaiterShedTraces:
    def test_each_waiter_shed_traces_its_error_class(self, engine):
        """A waiter the front door sheds on its own — at submit as
        full, stale or closed, or as a stale follower — names its
        error class in its trace, as flight-level sheds do."""
        traces = TraceBuffer(capacity=16, sample_rate=0.0)  # triggers only
        clock = FakeClock()

        async def go():
            frontdoor = AsyncFrontDoor(
                engine, FrontDoorConfig(max_pending=1), traces=traces
            )
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                blocker = asyncio.ensure_future(
                    frontdoor.submit("Allen", deadline=parked)
                )
                await entered(parked)
                # the one pending slot, and a follower on it whose own
                # deadline runs out while it waits
                leader = asyncio.ensure_future(frontdoor.submit(QUERY))
                await spin(lambda: frontdoor._flights, "leader admitted")
                follower = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=Deadline(10.0, clock=clock))
                )
                await spin(
                    lambda: counter(
                        frontdoor,
                        "precis_service_coalesced_total",
                        priority="interactive",
                    ),
                    "follower joined",
                )
                with pytest.raises(QueueFull):
                    await frontdoor.submit("comedy")
                with pytest.raises(StaleRequest):
                    await frontdoor.submit("drama", deadline=Deadline.after(-1))
                clock.advance(11.0)
                gate.set()
                await asyncio.gather(blocker, leader)
                with pytest.raises(StaleRequest):
                    await follower
                await frontdoor.close()
                with pytest.raises(ServiceClosed):
                    await frontdoor.submit(QUERY)
            finally:
                gate.set()
                await frontdoor.close()

        run(go())
        shed = sorted(
            (t.context.query, t.outcome, t.error, t.coalesced_into is not None)
            for t in traces.traces()
        )
        assert shed == [
            (QUERY, "shed_closed", "ServiceClosed", False),
            (QUERY, "shed_stale", "StaleRequest", True),
            ("comedy", "shed_full", "QueueFull", False),
            ("drama", "shed_stale", "StaleRequest", False),
        ]


class TestLifecycle:
    def test_submit_after_close_sheds_closed(self, engine):
        async def go():
            frontdoor = AsyncFrontDoor(engine, TWO_WORKERS)
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

    def test_close_is_idempotent(self, engine):
        async def go():
            frontdoor = AsyncFrontDoor(engine, TWO_WORKERS)
            await frontdoor.submit(QUERY)
            await frontdoor.close()
            await frontdoor.close()
            assert frontdoor.closed

        run(go())

    def test_close_closes_the_pool(self, engine):
        frontdoor = AsyncFrontDoor(engine)

        async def go():
            await frontdoor.submit(QUERY)
            await frontdoor.close()

        run(go())
        assert not any(t.is_alive() for t in frontdoor._pool._threads)

    def test_close_without_any_submit(self, engine):
        frontdoor = AsyncFrontDoor(engine, TWO_WORKERS)

        async def go():
            await frontdoor.close()

        run(go())
        # the pool's threads started with the front door, and stopped
        assert not any(t.is_alive() for t in frontdoor._pool._threads)

    def test_repr(self, engine):
        async def go():
            frontdoor = AsyncFrontDoor(engine, TWO_WORKERS)
            await frontdoor.close()
            return repr(frontdoor)

        assert "closed" in run(go())
