"""The serving stack's basics: the worker pool, and the admission
decisions (sheds, deadlines, metrics) the front door makes in front of
it.

Synchronization is event-based throughout — a worker is parked by a
``Deadline`` subclass that blocks its first ``expired()`` check on an
event, giving the test full control over queue occupancy without any
``time.sleep`` races.
"""

import asyncio
import threading

import pytest

from concurrent.futures import FIRST_COMPLETED, wait

from repro.core import Deadline, PrecisEngine, WeightThreshold
from repro.datasets import (
    generate_movies_database,
    movies_graph,
    paper_instance,
)
from repro.obs import MetricsRegistry
from repro.service import (
    AsyncFrontDoor,
    FrontDoorConfig,
    PrecisService,
    QueueFull,
    ServiceClosed,
    ServiceConfig,
    StaleRequest,
)

from .faults import FlakyStore
from .helpers import FakeClock, GateDeadline, entered, run, serve, spin

QUERY = '"Woody Allen"'


@pytest.fixture()
def engine():
    return PrecisEngine(paper_instance(), graph=movies_graph())


@pytest.fixture()
def service(engine):
    svc = PrecisService(engine, config=ServiceConfig(workers=1))
    yield svc
    svc.close()


def counter(service, name, **labels):
    return service.metrics.registry.counter(name, "", **labels).value


class TestAsk:
    def test_ask_matches_direct_engine_answer(self, engine, service):
        direct = engine.ask(QUERY, degree=WeightThreshold(0.5))
        served = service.ask(QUERY, degree=WeightThreshold(0.5))
        assert served.to_dict() == direct.to_dict()
        assert not served.degraded

    def test_submit_returns_future(self, service):
        future = service.submit(QUERY)
        answer = future.result(timeout=30)
        assert answer.found
        assert future.done()

    def test_ask_kwargs_are_forwarded(self, service):
        answer = service.ask(QUERY, translate=False)
        assert answer.narrative is None

    def test_engine_error_propagates_and_service_survives(self, service):
        future = service.submit(QUERY, no_such_kwarg=True)
        with pytest.raises(TypeError):
            future.result(timeout=30)
        assert counter(
            service, "precis_service_failures_total", kind="TypeError"
        ) == 1
        # the worker is still alive and serving
        assert service.ask(QUERY).found

    def test_queue_depth_gauge_returns_to_zero(self, service):
        for __ in range(3):
            assert serve(service, QUERY).found
        assert service.metrics.inflight.value == 0
        assert service.metrics.pending.value == 0


class TestShedding:
    def test_queue_full_sheds(self, service):
        async def go():
            frontdoor = AsyncFrontDoor(service, FrontDoorConfig(max_pending=1))
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
                        service,
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

    def test_stale_request_shed_at_dequeue(self, service):
        clock = FakeClock()

        async def go():
            frontdoor = AsyncFrontDoor(service)
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
                service,
                "precis_service_shed_total",
                reason="stale",
                priority="interactive",
            )
            == 1
        )
        # only the running ask reached a worker
        assert counter(service, "precis_service_executions_total") == 1

    def test_default_timeout_applies_when_no_deadline_given(self, service):
        with pytest.raises(StaleRequest):
            serve(
                service,
                QUERY,
                FrontDoorConfig(default_timeout_s=-1.0),  # instantly stale
            )

    def test_explicit_deadline_overrides_default_timeout(self, service):
        answer = serve(
            service,
            QUERY,
            FrontDoorConfig(default_timeout_s=-1.0),
            deadline=Deadline.never(),
        )
        assert not answer.degraded


class TestLifecycle:
    def test_submit_after_close_raises(self, engine):
        svc = PrecisService(engine)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit(QUERY)
        assert svc.closed

    def test_close_is_idempotent(self, engine):
        svc = PrecisService(engine)
        svc.close()
        svc.close()

    def test_close_serves_admitted_requests(self, engine):
        gate = threading.Event()
        blocker = GateDeadline(gate)
        svc = PrecisService(engine, config=ServiceConfig(workers=1))
        running = svc.submit(QUERY, deadline=blocker)
        assert blocker.entered.wait(timeout=30)
        queued = [svc.submit(QUERY) for __ in range(3)]
        closer = threading.Thread(target=svc.close, daemon=True)
        closer.start()
        gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert running.result(timeout=30).found
        for future in queued:
            assert future.result(timeout=30).found

    def test_context_manager_closes(self, engine):
        with PrecisService(engine) as svc:
            assert svc.ask(QUERY).found
        assert svc.closed

    def test_worker_pool_defaults_to_engine_count(self, engine):
        engines = [engine, PrecisEngine(paper_instance(), graph=movies_graph())]
        svc = PrecisService(engines)
        try:
            assert len(svc._threads) == 2
        finally:
            svc.close()

    def test_worker_count_override(self, engine):
        svc = PrecisService(engine, config=ServiceConfig(workers=3))
        try:
            assert len(svc._threads) == 3
            for __ in range(6):
                assert svc.ask(QUERY).found
        finally:
            svc.close()


class TestConfig:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ServiceConfig(workers=0)

    def test_needs_at_least_one_engine(self):
        with pytest.raises(ValueError):
            PrecisService([])

    def test_repr_mentions_shape(self, engine):
        svc = PrecisService(engine, config=ServiceConfig(workers=2))
        try:
            text = repr(svc)
            assert "2 worker(s)" in text
        finally:
            svc.close()
        assert "closed" in repr(svc)


class TestSharedRegistry:
    def test_service_and_engine_share_one_export(self):
        registry = MetricsRegistry()
        engine = PrecisEngine(
            paper_instance(), graph=movies_graph(), metrics=registry
        )
        svc = PrecisService(engine, registry=registry)
        try:
            serve(svc, QUERY)
        finally:
            svc.close()
        text = svc.metrics.prometheus()
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
        with PrecisService(engine, config=ServiceConfig(workers=2)) as svc:
            futures = {svc.submit(q): q for q in queries}
            # one ask reads to the end while the other's measurement is
            # open and waiting; then the held one finishes
            done, __ = wait(futures, timeout=30, return_when=FIRST_COMPLETED)
            assert len(done) == 1
            hold.set()
            costs = {
                q: future.result(timeout=30).to_dict()["cost"]
                for future, q in futures.items()
            }
        assert costs == serial
        # the database's own totals still count both asks' reads
        assert db.meter.tuple_reads >= sum(
            c["tuple_reads"] for c in serial.values()
        ) * 2
