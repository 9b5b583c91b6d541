"""Front-door deadline semantics: shed-on-stale and follower deadlines.

The coverage gap named by the ISSUE: a request whose deadline is
already expired at submit is shed (StaleRequest) *without ever
executing* — distinct from the engine's cooperative degradation — with
the correct metric increments; and a coalesced follower with a tighter
deadline than its leader still honours its own deadline while the
leader's execution proceeds for the remaining waiters.

Clock-dependent behaviour uses injectable FakeClock deadlines; worker
occupancy uses GateDeadline events. No wall sleeps.
"""

import asyncio
import threading

import pytest

from repro.core import Deadline, PrecisEngine
from repro.datasets import movies_graph, paper_instance
from repro.obs import TraceBuffer
from repro.service import (
    AsyncFrontDoor,
    FrontDoorConfig,
    PrecisService,
    ServiceConfig,
    StaleRequest,
)

from .helpers import FakeClock, GateDeadline, entered, run

QUERY = '"Woody Allen"'


@pytest.fixture()
def engine():
    return PrecisEngine(paper_instance(), graph=movies_graph())


@pytest.fixture()
def service(engine):
    svc = PrecisService(engine, config=ServiceConfig(workers=1))
    yield svc
    svc.close()


def counter(registry, name, **labels):
    return registry.counter(name, "", **labels).value


class TestExpiredAtSubmit:
    def test_sheds_without_executing(self, service):
        async def go():
            frontdoor = AsyncFrontDoor(service)
            registry = frontdoor.metrics.registry
            try:
                with pytest.raises(StaleRequest):
                    await frontdoor.submit(QUERY, deadline=Deadline.after(-1))
                return {
                    "requests": counter(
                        registry,
                        "precis_service_requests_total",
                        priority="interactive",
                    ),
                    "shed_stale": counter(
                        registry,
                        "precis_service_shed_total",
                        reason="stale",
                        priority="interactive",
                    ),
                    "executions": counter(
                        registry, "precis_service_executions_total"
                    ),
                    "answered": counter(
                        registry,
                        "precis_service_answered_total",
                        priority="interactive",
                    ),
                    "pending": frontdoor.pending(),
                    "inflight": frontdoor.metrics.inflight.value,
                }
            finally:
                await frontdoor.close()

        observed = run(go())
        # counted as submitted and as shed stale; never executed, never
        # handed to the pool, no flight or waiter left behind
        assert observed == {
            "requests": 1,
            "shed_stale": 1,
            "executions": 0,
            "answered": 0,
            "pending": 0,
            "inflight": 0,
        }

    def test_expired_submission_never_becomes_a_flight(self, service):
        async def go():
            frontdoor = AsyncFrontDoor(service)
            try:
                for _ in range(2):
                    with pytest.raises(StaleRequest):
                        await frontdoor.submit(
                            QUERY, deadline=Deadline.after(-1)
                        )
                # nothing to coalesce onto: no flights were registered
                assert frontdoor._flights == {}
                return frontdoor.metrics.snapshot()["counters"]
            finally:
                await frontdoor.close()

        counters = run(go())
        assert not any("coalesced" in key for key in counters)

    def test_traced_as_shed_stale(self, engine):
        traces = TraceBuffer(capacity=8, sample_rate=0.0)  # triggers only
        service = PrecisService(
            engine, config=ServiceConfig(workers=1), traces=traces
        )

        async def go():
            async with AsyncFrontDoor(service) as frontdoor:
                with pytest.raises(StaleRequest):
                    await frontdoor.submit(
                        QUERY, deadline=Deadline.after(-1)
                    )

        try:
            run(go())
        finally:
            service.close()
        kept = traces.traces()
        assert len(kept) == 1
        assert kept[0].outcome == "shed_stale"
        assert kept[0].coalesced_into is None
        # the context records the (spent) deadline budget
        assert kept[0].context.deadline_s == 0.0
        assert kept[0].stage_names() == ["request", "shed"]

    def test_injectable_clock_controls_expiry(self, service):
        clock = FakeClock()

        async def go():
            async with AsyncFrontDoor(service) as frontdoor:
                fresh = await frontdoor.submit(
                    QUERY, deadline=Deadline(10.0, clock=clock)
                )
                clock.advance(11.0)
                with pytest.raises(StaleRequest):
                    await frontdoor.submit(
                        QUERY, deadline=Deadline(10.0, clock=clock)
                    )
                return fresh

        assert run(go()).found


class TestDeadlineResolution:
    def test_timeout_s_parameter(self, service):
        async def go():
            async with AsyncFrontDoor(service) as frontdoor:
                with pytest.raises(StaleRequest):
                    await frontdoor.submit(QUERY, timeout_s=-1.0)

        run(go())

    def test_frontdoor_default_timeout(self, service):
        async def go():
            frontdoor = AsyncFrontDoor(
                service, FrontDoorConfig(default_timeout_s=-1.0)
            )
            try:
                with pytest.raises(StaleRequest):
                    await frontdoor.submit(QUERY)
                # an explicit deadline overrides the default
                return await frontdoor.submit(
                    QUERY, deadline=Deadline.after(30)
                )
            finally:
                await frontdoor.close()

        assert run(go()).found

    def test_service_default_timeout_is_the_fallback(self, service):
        """The front door's default applies to every submit form that
        names no deadline — ``timeout_s=None`` included."""

        async def go():
            frontdoor = AsyncFrontDoor(
                service, FrontDoorConfig(default_timeout_s=-1.0)
            )
            try:
                with pytest.raises(StaleRequest):
                    await frontdoor.submit(QUERY, timeout_s=None)
                # an explicit timeout overrides the default
                return await frontdoor.submit(QUERY, timeout_s=30.0)
            finally:
                await frontdoor.close()

        assert run(go()).found


class TestStaleAtDispatch:
    def test_pending_flight_expiring_in_queue_sheds_at_dispatch(
        self, service
    ):
        clock = FakeClock()

        async def go():
            # one worker, so one dispatcher: while it is parked on the
            # gated flight, the queued flight's (fake) deadline runs out
            frontdoor = AsyncFrontDoor(service)
            registry = frontdoor.metrics.registry
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                blocker = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=parked)
                )
                await entered(parked)
                executed_before = counter(
                    registry, "precis_service_executions_total"
                )
                queued = asyncio.ensure_future(
                    frontdoor.submit(
                        "drama", deadline=Deadline(5.0, clock=clock)
                    )
                )
                clock.advance(6.0)  # expires while queued, pre-dispatch
                gate.set()
                with pytest.raises(StaleRequest):
                    await queued
                await blocker
                return {
                    "shed_stale": counter(
                        registry,
                        "precis_service_shed_total",
                        reason="stale",
                        priority="interactive",
                    ),
                    "executions_delta": counter(
                        registry, "precis_service_executions_total"
                    )
                    - executed_before,
                }
            finally:
                gate.set()
                await frontdoor.close()

        observed = run(go())
        # shed by the front door at dispatch — the worker pool never
        # saw the request
        assert observed == {"shed_stale": 1, "executions_delta": 0}


class TestFollowerDeadlines:
    def test_follower_honours_tighter_deadline_than_leader(self, service):
        """The leader has no deadline and is parked; a follower joins
        with its own (fake-clock) deadline which then expires. The
        follower must get StaleRequest — the leader still answers."""
        clock = FakeClock()

        async def go():
            frontdoor = AsyncFrontDoor(service)
            registry = frontdoor.metrics.registry
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                leader = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=parked)
                )
                await entered(parked)
                follower = asyncio.ensure_future(
                    frontdoor.submit(
                        QUERY, deadline=Deadline(30.0, clock=clock)
                    )
                )
                # let the follower join the flight
                while (
                    counter(
                        registry,
                        "precis_service_coalesced_total",
                        priority="interactive",
                    )
                    < 1
                ):
                    await asyncio.sleep(0)
                # the follower's own budget runs out while coalesced;
                # the wall timeout (30 fake-seconds) never fires — the
                # post-resolution check must still refuse the answer
                clock.advance(31.0)
                gate.set()
                leader_answer = await leader
                with pytest.raises(StaleRequest):
                    await follower
                return leader_answer, {
                    "stale_follower": counter(
                        registry,
                        "precis_service_shed_total",
                        reason="stale_follower",
                        priority="interactive",
                    ),
                    "flight_stale": counter(
                        registry,
                        "precis_service_shed_total",
                        reason="stale",
                        priority="interactive",
                    ),
                    "answered": counter(
                        registry,
                        "precis_service_answered_total",
                        priority="interactive",
                    ),
                }
            finally:
                gate.set()
                await frontdoor.close()

        leader_answer, observed = run(go())
        assert leader_answer.found and not leader_answer.degraded
        # waiter-level shed, not flight-level: the execution completed
        # and served its leader
        assert observed == {
            "stale_follower": 1,
            "flight_stale": 0,
            "answered": 1,
        }

    def test_follower_timeout_fires_before_leader_resolves(self, service):
        """Wall-timeout variant: the follower's real deadline elapses
        while the leader is still parked — asyncio.wait_for trips, the
        follower sheds, the flight itself is untouched."""

        async def go():
            frontdoor = AsyncFrontDoor(service)
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                leader = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=parked)
                )
                await entered(parked)
                follower = asyncio.ensure_future(
                    frontdoor.submit(QUERY, timeout_s=0.02)
                )
                with pytest.raises(StaleRequest):
                    await follower
                # the flight survived its follower's departure
                gate.set()
                return await leader
            finally:
                gate.set()
                await frontdoor.close()

        assert run(go()).found

    def test_follower_trace_outcome_is_shed_stale(self, engine):
        traces = TraceBuffer(capacity=16, sample_rate=0.0)
        service = PrecisService(
            engine, config=ServiceConfig(workers=1), traces=traces
        )
        clock = FakeClock()

        async def go():
            frontdoor = AsyncFrontDoor(service)
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                leader = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=parked)
                )
                await entered(parked)
                follower = asyncio.ensure_future(
                    frontdoor.submit(
                        QUERY, deadline=Deadline(10.0, clock=clock)
                    )
                )
                registry = frontdoor.metrics.registry
                while (
                    counter(
                        registry,
                        "precis_service_coalesced_total",
                        priority="interactive",
                    )
                    < 1
                ):
                    await asyncio.sleep(0)
                clock.advance(11.0)
                gate.set()
                await leader
                with pytest.raises(StaleRequest):
                    await follower
            finally:
                gate.set()
                await frontdoor.close()

        try:
            run(go())
        finally:
            service.close()
        shed = [t for t in traces.traces() if t.outcome == "shed_stale"]
        assert len(shed) == 1
        assert shed[0].coalesced_into is not None
