"""Admission hits: a cached ask is answered at the front door.

When the first engine's answer cache holds a live answer under a
request's signature, AsyncFrontDoor answers it on the event loop
through PrecisEngine.ask — no flight, no pending slot, no worker — and
counts and traces it like any other answer. Every served body must
equal a fresh uncached engine's, encoded as the HTTP layer sends it.
Run on both storage backends; workers are parked on GateDeadline
events and expiry comes from fake clocks, never sleeps.
"""

import asyncio
import json
import threading

import pytest

from repro.cache import CacheConfig
from repro.core import Deadline, PrecisEngine, WeightThreshold
from repro.core import engine as engine_module
from repro.core.answer import PrecisAnswer
from repro.datasets import generate_movies_database, movies_graph
from repro.obs import TraceBuffer, current_trace_id
from repro.service import (
    AsyncFrontDoor,
    FrontDoorConfig,
    FrontDoorHTTP,
    QueueFull,
    ServiceClosed,
    StaleRequest,
    TenantQuotaExceeded,
)
from repro.storage import BACKEND_NAMES, PermanentStorageError
from repro.text.maintenance import SynchronizedWriter

from .faults import make_flaky
from .helpers import (
    FakeClock,
    GateDeadline,
    entered,
    http_get_bytes,
    run,
    spin,
)

QUERY = "midnight"
OTHERS = ["drama", "garcia", "thriller", "comedy"]
DEGREE = WeightThreshold(0.5)


class RecordingFrontDoor(AsyncFrontDoor):
    """A front door that records every query it hands its pool."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handed = []
        submit = self._pool.submit

        def recording(query, **kwargs):
            self.handed.append(query)
            return submit(query, **kwargs)

        self._pool.submit = recording


def fresh_bytes(db, query):
    """The oracle: a fresh uncached engine's answer, encoded as the
    HTTP layer sends it."""
    engine = PrecisEngine(db, graph=movies_graph())
    answer = engine.ask(query, degree=DEGREE)
    return json.dumps(answer.to_dict(), sort_keys=True).encode()


def count(frontdoor, name, **labels):
    return frontdoor.metrics.registry.counter(name, "", **labels).value


def executions(frontdoor):
    return count(frontdoor, "precis_service_executions_total")


def admission_hits(frontdoor):
    return count(
        frontdoor,
        "precis_service_admission_hits_total",
        priority="interactive",
    )


@pytest.fixture(params=BACKEND_NAMES)
def db(request):
    return generate_movies_database(
        n_movies=60, seed=11, backend=request.param
    )


@pytest.fixture()
def stack(db):
    """Builds a cached engine over *db* and a recording front door over
    it (two workers unless *config* says otherwise); each test closes
    its front door."""

    def make(config=None, traces=None, **engine_kwargs):
        engine = PrecisEngine(
            db,
            graph=movies_graph(),
            cache=CacheConfig(answers=True),
            **engine_kwargs,
        )
        config = config if config is not None else FrontDoorConfig(workers=2)
        return engine, RecordingFrontDoor(engine, config, traces=traces)

    return make


class TestAdmissionHits:
    @pytest.mark.parametrize("coalesce", [True, False])
    def test_repeated_ask_never_reaches_the_pool(self, stack, coalesce):
        config = FrontDoorConfig(workers=2, coalesce=coalesce)
        engine, frontdoor = stack(config)

        async def go():
            async with frontdoor:
                first = await frontdoor.submit(QUERY, degree=DEGREE)
                repeats = [
                    await frontdoor.submit(QUERY, degree=DEGREE)
                    for __ in range(3)
                ]
                return first, repeats

        first, repeats = run(go())
        assert frontdoor.handed == [QUERY]
        assert executions(frontdoor) == 1
        assert admission_hits(frontdoor) == 3
        # each hit went through PrecisEngine.ask and its answer cache
        assert engine.cache_stats()["answers"]["hits"] == 3
        assert all(answer is first for answer in repeats)
        assert repeats[0].to_json() is repeats[1].to_json()

    def test_hit_body_is_the_fresh_engine_bytes(self, db, stack, monkeypatch):
        __, frontdoor = stack()
        encodings = []
        to_dict = PrecisAnswer.to_dict

        def counting_to_dict(answer):
            encodings.append(answer)
            return to_dict(answer)

        monkeypatch.setattr(PrecisAnswer, "to_dict", counting_to_dict)

        async def go():
            async with frontdoor:
                async with FrontDoorHTTP(frontdoor, port=0) as http:
                    return [
                        await http_get_bytes(
                            http.host,
                            http.port,
                            f"/ask?q={QUERY}&degree_weight=0.5",
                        )
                        for __ in range(3)
                    ]

        responses = run(go())
        # one encoding, made for the first request, served three times
        assert len(encodings) == 1
        monkeypatch.undo()
        expected = fresh_bytes(db, QUERY)
        assert responses == [(200, expected)] * 3
        assert frontdoor.handed == [QUERY]

    def test_traced_hit_is_one_frontdoor_trace(self, db, stack):
        buffer = TraceBuffer(capacity=16, sample_rate=1.0)
        engine, frontdoor = stack(traces=buffer, slow_query_ms=0)

        async def go():
            async with frontdoor:
                miss = await frontdoor.submit(QUERY, degree=DEGREE)
                hits = [
                    await frontdoor.submit(QUERY, degree=DEGREE)
                    for __ in range(2)
                ]
                return miss, hits, current_trace_id()

        miss, hits, ambient = run(go())
        assert ambient is None
        assert frontdoor.handed == [QUERY]
        traces = buffer.traces()
        assert len(traces) == 3  # one per request
        served = [trace for trace in traces if trace.worker == "frontdoor"]
        assert len(served) == 2
        for trace, answer in zip(served, hits):
            assert trace.outcome == "answered"
            assert trace.queue_wait_s == 0.0
            assert trace.stage_names() == ["request", "ask", "cache"]
            assert trace.root.find("cache").counter("answer_cache_hit") == 1
            # the answer carries its own ask span, not the cached one's
            assert answer.stats is trace.root.children[0]
            assert answer is not miss
        # each request's context was active during its ask
        assert {
            entry.trace_id for entry in engine.metrics.slow_queries.entries()
        } == {trace.trace_id for trace in traces}
        # and the last hit's id is the exemplar of the bucket it filled
        last = served[-1]
        histogram = frontdoor.metrics.registry.histogram(
            "precis_service_seconds", priority="interactive"
        )
        assert last.trace_id in histogram.exemplars()
        # traced hits share one encoding, equal to the untraced body
        assert hits[0].to_json() is hits[1].to_json()
        assert hits[0].to_json() == fresh_bytes(db, QUERY)

    def test_write_between_asks_sends_the_next_to_the_pool(self, db, stack):
        engine, frontdoor = stack()
        writer = SynchronizedWriter(db, engine.index)

        async def go():
            async with frontdoor:
                before = await frontdoor.submit(QUERY, degree=DEGREE)
                await frontdoor.submit(QUERY, degree=DEGREE)
                writer.insert(
                    "MOVIE",
                    {"MID": 90_001, "TITLE": "Midnight Ledger", "YEAR": 2001},
                )
                after = await frontdoor.submit(QUERY, degree=DEGREE)
                return before, after

        before, after = run(go())
        assert frontdoor.handed == [QUERY, QUERY]
        assert executions(frontdoor) == 2
        assert admission_hits(frontdoor) == 1
        assert after.to_json() == fresh_bytes(db, QUERY)
        assert after.to_json() != before.to_json()


class TestWhatAHitSkips:
    def test_closed_and_stale_requests_are_still_shed(self, stack):
        engine, frontdoor = stack()
        expired = Deadline(0.0, clock=FakeClock(1.0))

        async def go():
            await frontdoor.submit(QUERY, degree=DEGREE)
            assert engine.holds_answer(
                engine.ask_signature(QUERY, degree=DEGREE)
            )
            with pytest.raises(StaleRequest):
                await frontdoor.submit(QUERY, degree=DEGREE, deadline=expired)
            await frontdoor.close()
            with pytest.raises(ServiceClosed):
                await frontdoor.submit(QUERY, degree=DEGREE)

        run(go())
        for reason in ("stale", "closed"):
            assert (
                count(
                    frontdoor,
                    "precis_service_shed_total",
                    reason=reason,
                    priority="interactive",
                )
                == 1
            )
        assert admission_hits(frontdoor) == 0
        assert engine.cache_stats()["answers"]["hits"] == 0

    def test_hit_answered_while_the_pending_queue_is_full(self, db, stack):
        __, frontdoor = stack(FrontDoorConfig(max_pending=1))
        gate = threading.Event()
        parked = GateDeadline(gate)

        async def go():
            try:
                await frontdoor.submit(QUERY, degree=DEGREE)
                blocker = asyncio.ensure_future(
                    frontdoor.submit(OTHERS[0], degree=DEGREE, deadline=parked)
                )
                await entered(parked)
                queued = asyncio.ensure_future(
                    frontdoor.submit(OTHERS[1], degree=DEGREE)
                )
                await spin(lambda: frontdoor.pending() == 2, "a queued flight")
                with pytest.raises(QueueFull):
                    await frontdoor.submit(OTHERS[2], degree=DEGREE)
                hit = await frontdoor.submit(QUERY, degree=DEGREE)
                assert not blocker.done() and not queued.done()
                gate.set()
                await asyncio.gather(blocker, queued)
                return hit
            finally:
                gate.set()
                await frontdoor.close()

        hit = run(go())
        assert hit.to_json() == fresh_bytes(db, QUERY)
        assert admission_hits(frontdoor) == 1
        assert frontdoor.handed == [QUERY, OTHERS[0], OTHERS[1]]

    def test_hit_answered_while_its_tenant_holds_all_its_slots(
        self, db, stack
    ):
        __, frontdoor = stack(FrontDoorConfig(workers=2, tenant_slots=1))
        gate = threading.Event()
        parked = GateDeadline(gate)

        async def go():
            try:
                await frontdoor.submit(QUERY, degree=DEGREE, tenant="alice")
                blocker = asyncio.ensure_future(
                    frontdoor.submit(
                        OTHERS[0], degree=DEGREE, deadline=parked,
                        tenant="alice",
                    )
                )
                await entered(parked)
                assert frontdoor.tenant_inflight("alice") == 1
                # an execution is over quota on the free worker...
                with pytest.raises(TenantQuotaExceeded):
                    await frontdoor.submit(
                        OTHERS[1], degree=DEGREE, tenant="alice"
                    )
                # ...but a hit needs no slot
                hit = await frontdoor.submit(
                    QUERY, degree=DEGREE, tenant="alice"
                )
                gate.set()
                await blocker
                return hit
            finally:
                gate.set()
                await frontdoor.close()

        hit = run(go())
        assert hit.to_json() == fresh_bytes(db, QUERY)
        assert admission_hits(frontdoor) == 1
        assert (
            count(
                frontdoor,
                "precis_service_tenant_requests_total",
                tenant="alice",
            )
            == 4
        )


class TestAccounting:
    def test_requests_are_executions_followers_hits_and_sheds(self, stack):
        __, frontdoor = stack(FrontDoorConfig(max_pending=2))
        gate = threading.Event()
        parked = GateDeadline(gate)
        expired = Deadline(0.0, clock=FakeClock(1.0))

        async def go():
            try:
                await frontdoor.submit(QUERY, degree=DEGREE)
                blocker = asyncio.ensure_future(
                    frontdoor.submit(OTHERS[0], degree=DEGREE, deadline=parked)
                )
                await entered(parked)
                waiting = [
                    asyncio.ensure_future(
                        frontdoor.submit(OTHERS[1], degree=DEGREE)
                    )
                    for __ in range(4)
                ]
                await spin(
                    lambda: count(
                        frontdoor,
                        "precis_service_coalesced_total",
                        priority="interactive",
                    )
                    == 3,
                    "three followers",
                )
                for __ in range(4):
                    await frontdoor.submit(QUERY, degree=DEGREE)
                with pytest.raises(StaleRequest):
                    await frontdoor.submit(
                        OTHERS[2], degree=DEGREE, deadline=expired
                    )
                waiting.append(
                    asyncio.ensure_future(
                        frontdoor.submit(OTHERS[2], degree=DEGREE)
                    )
                )
                await spin(lambda: frontdoor.pending() == 3, "a full queue")
                with pytest.raises(QueueFull):
                    await frontdoor.submit(OTHERS[3], degree=DEGREE)
                gate.set()
                await asyncio.gather(blocker, *waiting)
            finally:
                gate.set()
                await frontdoor.close()
            with pytest.raises(ServiceClosed):
                await frontdoor.submit(QUERY, degree=DEGREE)

        run(go())
        counters = frontdoor.metrics.snapshot()["counters"]
        requests = counters[
            'precis_service_requests_total{priority="interactive"}'
        ]
        followers = counters[
            'precis_service_coalesced_total{priority="interactive"}'
        ]
        sheds = sum(
            value
            for name, value in counters.items()
            if name.startswith("precis_service_shed_total")
        )
        assert (executions(frontdoor), followers) == (4, 3)
        assert (admission_hits(frontdoor), sheds) == (4, 3)
        assert requests == 14
        assert requests == (
            executions(frontdoor) + followers + admission_hits(frontdoor)
            + sheds
        )

    def test_misses_go_to_the_pool_and_hits_never_do(self, stack, monkeypatch):
        engine, frontdoor = stack()
        pipeline_threads = []
        generate = engine_module.generate_result_database

        def recording(*args, **kwargs):
            pipeline_threads.append(threading.current_thread())
            return generate(*args, **kwargs)

        monkeypatch.setattr(
            engine_module, "generate_result_database", recording
        )
        plan = [QUERY, OTHERS[0], QUERY, OTHERS[1], OTHERS[0], QUERY]

        async def go():
            async with frontdoor:
                for query in plan:
                    await frontdoor.submit(query, degree=DEGREE)

        run(go())
        misses = list(dict.fromkeys(plan))
        assert frontdoor.handed == misses
        assert admission_hits(frontdoor) == len(plan) - len(misses)
        assert len(pipeline_threads) == len(misses)
        assert threading.current_thread() not in pipeline_threads

    def test_an_ask_the_cache_lost_since_the_check_runs_on_the_loop(
        self, db, stack, monkeypatch
    ):
        """The leftover case: an eviction between the admission check
        and the ask. Forcing the check true on an empty cache makes the
        ask run the pipeline on the loop; its answer is still right."""
        engine, frontdoor = stack()
        monkeypatch.setattr(engine, "holds_answer", lambda signature: True)

        async def go():
            async with frontdoor:
                return await frontdoor.submit(QUERY, degree=DEGREE)

        answer = run(go())
        assert frontdoor.handed == []
        assert engine.cache_stats()["answers"]["misses"] == 1
        assert answer.to_json() == fresh_bytes(db, QUERY)

    def test_a_failed_ask_on_the_loop_is_counted_and_traced(
        self, db, stack, monkeypatch
    ):
        """The leftover case failing: the pipeline the loop runs meets
        a storage fault. The caller gets the error, and the failure is
        counted under the same kind as a worker's and traced (always
        kept)."""
        buffer = TraceBuffer(capacity=16, sample_rate=0.0)
        engine, frontdoor = stack(traces=buffer)
        monkeypatch.setattr(engine, "holds_answer", lambda signature: True)
        make_flaky(db, methods={"get_many"}, error=PermanentStorageError)

        async def go():
            async with frontdoor:
                with pytest.raises(PermanentStorageError):
                    await frontdoor.submit(QUERY, degree=DEGREE)

        run(go())
        assert frontdoor.handed == []
        assert (
            count(
                frontdoor,
                "precis_service_failures_total",
                kind="permanent",
            )
            == 1
        )
        (trace,) = buffer.traces()
        assert (trace.outcome, trace.worker, trace.error) == (
            "failed",
            "frontdoor",
            "PermanentStorageError",
        )
        assert trace.stage_names()[:2] == ["request", "ask"]
        assert frontdoor.metrics.inflight.value == 0
