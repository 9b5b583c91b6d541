"""The serving stack's basics: the worker pool's threads, its
lifecycle and per-ask cost seen through the front door that owns it,
and the admission decisions (sheds, deadlines, metrics) the front door
makes in front of it.

Synchronization is event-based throughout — a worker is parked by a
``Deadline`` subclass that blocks its first ``expired()`` check on an
event, giving the test full control over queue occupancy without any
``time.sleep`` races.
"""

import asyncio
import threading

import pytest

from repro.core import Deadline, PrecisEngine, WeightThreshold
from repro.datasets import (
    generate_movies_database,
    movies_graph,
    paper_instance,
)
from repro.obs import MetricsRegistry, ServiceMetrics
from repro.service import (
    AsyncFrontDoor,
    FrontDoorConfig,
    QueueFull,
    ServiceClosed,
    StaleRequest,
)

from .faults import FlakyStore
from .helpers import FakeClock, GateDeadline, entered, run, serve, spin

QUERY = '"Woody Allen"'


@pytest.fixture()
def engine():
    return PrecisEngine(paper_instance(), graph=movies_graph())


def counter(server, name, **labels):
    """A counter of a front door's metrics."""
    return server.metrics.registry.counter(name, "", **labels).value


class TestAsk:
    def test_ask_matches_direct_engine_answer(self, engine):
        direct = engine.ask(QUERY, degree=WeightThreshold(0.5))
        served = serve(engine, QUERY, degree=WeightThreshold(0.5))
        assert served.to_dict() == direct.to_dict()
        assert not served.degraded

    def test_submit_returns_future(self, engine):
        """The pool's ``submit`` hands back the future its worker
        resolves, and says which worker ran the ask."""

        async def go():
            async with AsyncFrontDoor(engine) as frontdoor:
                future = frontdoor._pool.submit(QUERY, Deadline(None), None)
                answer = await asyncio.wrap_future(future)
                return future, answer

        future, answer = run(go())
        assert answer.found
        assert future.done()
        assert future.worker == "precis-worker-0"
        assert future.retries == 0
        assert future.root is None  # untraced: no context was handed over

    def test_ask_kwargs_are_forwarded(self, engine):
        answer = serve(engine, QUERY, translate=False)
        assert answer.narrative is None

    def test_engine_error_propagates_and_service_survives(self, engine):
        async def go():
            async with AsyncFrontDoor(engine) as frontdoor:
                with pytest.raises(TypeError):
                    await frontdoor.submit(QUERY, no_such_kwarg=True)
                failures = counter(
                    frontdoor,
                    "precis_service_failures_total",
                    kind="TypeError",
                )
                # the only worker is still alive and serving
                return failures, await frontdoor.submit(QUERY)

        failures, answer = run(go())
        assert failures == 1
        assert answer.found

    def test_queue_depth_gauge_returns_to_zero(self, engine):
        registry = MetricsRegistry()
        for __ in range(3):
            assert serve(engine, QUERY, registry=registry).found
        metrics = ServiceMetrics(registry)
        assert metrics.inflight.value == 0
        assert metrics.pending.value == 0


class TestShedding:
    def test_queue_full_sheds(self, engine):
        async def go():
            frontdoor = AsyncFrontDoor(engine, FrontDoorConfig(max_pending=1))
            gate = threading.Event()
            blocker = GateDeadline(gate)
            try:
                running = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=blocker)
                )
                await entered(blocker)  # the only worker is parked
                # fills the one pending slot
                queued = asyncio.ensure_future(frontdoor.submit("comedy"))
                await spin(lambda: frontdoor.pending() == 2, "queue full")
                with pytest.raises(QueueFull):
                    await frontdoor.submit("Drama")
                assert (
                    counter(
                        frontdoor,
                        "precis_service_shed_total",
                        reason="full",
                        priority="interactive",
                    )
                    == 1
                )
                gate.set()
                return await running, await queued
            finally:
                gate.set()
                await frontdoor.close()

        running, queued = run(go())
        assert running.found and queued.found

    def test_stale_request_shed_at_dequeue(self, engine):
        clock = FakeClock()
        frontdoor = AsyncFrontDoor(engine)

        async def go():
            gate = threading.Event()
            blocker = GateDeadline(gate)
            try:
                running = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=blocker)
                )
                await entered(blocker)
                # queued behind the parked worker; its deadline dies
                # before a worker frees up
                stale = asyncio.ensure_future(
                    frontdoor.submit(
                        "comedy", deadline=Deadline(5.0, clock=clock)
                    )
                )
                await spin(lambda: frontdoor.pending() == 2, "queued")
                clock.advance(6.0)
                gate.set()
                with pytest.raises(StaleRequest):
                    await stale
                return await running
            finally:
                gate.set()
                await frontdoor.close()

        assert run(go()).found
        assert (
            counter(
                frontdoor,
                "precis_service_shed_total",
                reason="stale",
                priority="interactive",
            )
            == 1
        )
        # only the running ask reached a worker
        assert counter(frontdoor, "precis_service_executions_total") == 1

    def test_default_timeout_applies_when_no_deadline_given(self, engine):
        with pytest.raises(StaleRequest):
            serve(
                engine,
                QUERY,
                FrontDoorConfig(default_timeout_s=-1.0),  # instantly stale
            )

    def test_explicit_deadline_overrides_default_timeout(self, engine):
        answer = serve(
            engine,
            QUERY,
            FrontDoorConfig(default_timeout_s=-1.0),
            deadline=Deadline.never(),
        )
        assert not answer.degraded


class TestLifecycle:
    def test_submit_after_close_raises(self, engine):
        async def go():
            frontdoor = AsyncFrontDoor(engine)
            await frontdoor.close()
            with pytest.raises(ServiceClosed):
                await frontdoor.submit(QUERY)
            return frontdoor

        assert run(go()).closed

    def test_close_is_idempotent(self, engine):
        async def go():
            frontdoor = AsyncFrontDoor(engine)
            await frontdoor.close()
            await frontdoor.close()

        run(go())

    def test_close_serves_admitted_requests(self, engine):
        async def go():
            gate = threading.Event()
            blocker = GateDeadline(gate)
            frontdoor = AsyncFrontDoor(engine, FrontDoorConfig(coalesce=False))
            try:
                running = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=blocker)
                )
                await entered(blocker)
                queued = [
                    asyncio.ensure_future(frontdoor.submit(QUERY))
                    for __ in range(3)
                ]
                await spin(lambda: frontdoor.pending() == 4, "queued")
                closer = asyncio.ensure_future(frontdoor.close())
                gate.set()
                await asyncio.wait_for(closer, timeout=30)
                return await running, [await future for future in queued]
            finally:
                gate.set()
                await frontdoor.close()

        running, queued = run(go())
        assert running.found
        for answer in queued:
            assert answer.found

    def test_context_manager_closes(self, engine):
        async def go():
            async with AsyncFrontDoor(engine) as frontdoor:
                assert (await frontdoor.submit(QUERY)).found
            return frontdoor

        assert run(go()).closed

    def test_worker_pool_defaults_to_one_worker(self, engine):
        assert FrontDoorConfig().workers == 1
        frontdoor = AsyncFrontDoor(engine)
        try:
            assert len(frontdoor._pool._threads) == 1
            assert frontdoor._pool.engine is engine
        finally:
            run(frontdoor.close())

    def test_worker_count_override(self, engine):
        async def go():
            config = FrontDoorConfig(workers=3)
            async with AsyncFrontDoor(engine, config) as frontdoor:
                assert len(frontdoor._pool._threads) == 3
                for __ in range(6):
                    assert (await frontdoor.submit(QUERY)).found

        run(go())


class TestConfig:
    def test_rejects_bad_workers(self, engine):
        with pytest.raises(ValueError, match="workers"):
            AsyncFrontDoor(engine, FrontDoorConfig(workers=0))

    def test_repr_mentions_shape(self, engine):
        frontdoor = AsyncFrontDoor(engine, FrontDoorConfig(workers=2))
        try:
            text = repr(frontdoor)
            assert "2 worker(s)" in text
        finally:
            run(frontdoor.close())
        assert "closed" in repr(frontdoor)


class TestSharedRegistry:
    def test_service_and_engine_share_one_export(self):
        registry = MetricsRegistry()
        engine = PrecisEngine(
            paper_instance(), graph=movies_graph(), metrics=registry
        )
        serve(engine, QUERY, registry=registry)
        text = ServiceMetrics(registry).prometheus()
        assert "precis_service_requests_total" in text
        assert "precis_service_inflight" in text
        assert "precis_asks_total" in text  # the engine's own series


class _OverlapStore(FlakyStore):
    """Holds each thread's first tuple read until both asks are inside
    their cost measurement; then one of them waits on *hold* while the
    other reads everything it needs."""

    def __init__(self, inner, barrier, hold, seen):
        super().__init__(inner, fail_times=0)
        self.barrier = barrier
        self.hold = hold
        self.seen = seen

    def get_many(self, tids):
        me = threading.get_ident()
        if me not in self.seen:
            self.seen.add(me)
            if self.barrier.wait(timeout=30) == 0:
                assert self.hold.wait(timeout=30)
        return self.inner.get_many(tids)


class TestCostPerAsk:
    def test_overlapping_asks_report_their_serial_cost(self):
        db = generate_movies_database(n_movies=60, seed=11)
        engine = PrecisEngine(db, graph=movies_graph())
        queries = ("drama", "garcia")
        serial = {q: engine.ask(q).to_dict()["cost"] for q in queries}
        assert serial["drama"] != serial["garcia"]
        barrier, hold, seen = threading.Barrier(2), threading.Event(), set()
        for name in db.schema.relation_names:
            relation = db.relation(name)
            relation.store = _OverlapStore(relation.store, barrier, hold, seen)

        async def go():
            config = FrontDoorConfig(workers=2)
            async with AsyncFrontDoor(engine, config) as frontdoor:
                futures = {
                    asyncio.ensure_future(frontdoor.submit(q)): q
                    for q in queries
                }
                try:
                    # one ask reads to the end while the other's
                    # measurement is open and waiting; then the held
                    # one finishes
                    done, __ = await asyncio.wait(
                        futures, timeout=30,
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    assert len(done) == 1
                finally:
                    hold.set()
                return {
                    q: (await future).to_dict()["cost"]
                    for future, q in futures.items()
                }

        costs = run(go())
        assert costs == serial
        # the database's own totals still count both asks' reads
        assert db.meter.tuple_reads >= sum(
            c["tuple_reads"] for c in serial.values()
        ) * 2
