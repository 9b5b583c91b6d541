"""End-to-end request tracing through the serving stack
(repro.obs.context + repro.service).

The contract under test: with a :class:`TraceBuffer` on the front door,
every request through it — answered, degraded, shed, failed,
retried — leaves one trace whose span tree covers submit → queue →
retries → the engine's ask tree; the same trace id shows up in the
answer's EXPLAIN record, the latency histogram's exemplars and the
slow-query log; and bad outcomes are captured even at sample rate 0
(tail-biased admission).
"""

import asyncio
import threading

import pytest

from repro.core import Deadline, PrecisEngine
from repro.datasets import movies_graph, paper_instance
from repro.obs import MetricsRegistry
from repro.obs.context import (
    TraceBuffer,
    current_trace_id,
    validate_chrome_trace,
)
from repro.service import (
    AsyncFrontDoor,
    FrontDoorConfig,
    QueueFull,
    ServiceClosed,
    TenantQuotaExceeded,
)

from .faults import AfterNChecks, make_flaky
from .helpers import GateDeadline, entered, run, serve, spin


@pytest.fixture()
def engine():
    return PrecisEngine(paper_instance(), graph=movies_graph())


def serve_one(engine_, query="Allen", buffer=None, **submit_kwargs):
    buffer = buffer if buffer is not None else TraceBuffer(sample_rate=1.0)
    answer = serve(engine_, query, traces=buffer, **submit_kwargs)
    return answer, buffer


def gated(frontdoor, body):
    """Run ``body(frontdoor, gate, parked)`` on *frontdoor*; always
    opens the gate and closes the front door."""

    async def go():
        gate = threading.Event()
        try:
            return await body(frontdoor, gate, GateDeadline(gate))
        finally:
            gate.set()
            await frontdoor.close()

    return run(go())


class TestAnsweredRequestTrace:
    def test_tree_spans_submit_to_response(self, engine):
        answer, buffer = serve_one(engine, deadline=Deadline.after(3600))
        [trace] = buffer.traces()
        names = trace.stage_names()
        # the root covers the whole request; queue is first; the
        # engine's own ask tree nests below, down to the generators
        assert names[0] == "request"
        assert names[1] == "queue"
        assert "ask" in names
        assert "schema_generator" in names
        assert "database_generator" in names
        assert trace.outcome == "answered"
        assert trace.retries == 0
        assert trace.worker == "precis-worker-0"
        # the front door minted the context with the deadline budget
        assert 0.0 < trace.context.deadline_s <= 3600.0
        # timing invariants: root spans at least queue + ask
        root = trace.root
        assert root.duration_s >= trace.queue_wait_s
        assert root.wall_start == trace.context.submitted_wall
        for child in root.children:
            assert child._mono_start >= root._mono_start - 1e-9

    def test_explain_carries_the_trace_id(self, engine):
        answer, buffer = serve_one(engine)
        [trace] = buffer.traces()
        assert answer.explanation is not None
        assert answer.explanation.trace_id == trace.trace_id
        rendered = answer.explanation.render()
        assert f"trace: {trace.trace_id}" in rendered
        assert answer.explanation.to_dict()["trace_id"] == trace.trace_id

    def test_untraced_service_stamps_no_trace_id(self, engine):
        answer = serve(engine, "Allen")
        assert answer.explanation.trace_id is None
        assert "trace:" not in answer.explanation.render()

    def test_trace_id_lands_as_histogram_exemplar(self, engine):
        registry = MetricsRegistry()
        buffer = TraceBuffer(sample_rate=1.0)
        serve(engine, "Allen", registry=registry, traces=buffer)
        [trace] = buffer.traces()
        hist = registry.histogram(
            "precis_service_seconds", priority="interactive"
        )
        assert trace.trace_id in hist.exemplars()
        # and the snapshot surfaces it on the owning bucket
        snapshot = registry.snapshot()
        buckets = snapshot["histograms"][
            'precis_service_seconds{priority="interactive"}'
        ]["buckets"]
        assert any(
            b.get("exemplar") == trace.trace_id for b in buckets
        )

    def test_slow_query_log_carries_the_trace_id(self):
        engine_ = PrecisEngine(
            paper_instance(),
            graph=movies_graph(),
            metrics=True,
            slow_query_ms=0.0,
        )
        answer, buffer = serve_one(engine_)
        [trace] = buffer.traces()
        entries = engine_.metrics.slow_queries.entries()
        assert entries
        assert entries[0].trace_id == trace.trace_id
        assert entries[0].to_dict()["trace_id"] == trace.trace_id

    def test_trace_is_findable_before_the_future_resolves(self, engine):
        buffer = TraceBuffer(sample_rate=1.0)
        seen_at_return: list[bool] = []
        frontdoor = AsyncFrontDoor(engine, traces=buffer)

        async def body(frontdoor, gate, parked):
            async def waiter(**submit_kwargs):
                answer = await frontdoor.submit("Allen", **submit_kwargs)
                # the answer names the leader's trace id
                seen_at_return.append(
                    buffer.find(answer.explanation.trace_id) is not None
                )

            leader = asyncio.ensure_future(waiter(deadline=parked))
            await entered(parked)
            follower = asyncio.ensure_future(waiter())
            await spin(
                lambda: frontdoor.metrics.registry.counter(
                    "precis_service_coalesced_total", "",
                    priority="interactive",
                ).value == 1,
                "follower joined",
            )
            gate.set()
            await asyncio.gather(leader, follower)

        gated(frontdoor, body)
        # the leader's trace is offered before its flight resolves, so
        # when any waiter's submit returns — the earliest instant a
        # caller can hold the answer — the buffer already holds it
        assert seen_at_return == [True, True]

    def test_chrome_export_of_live_traffic_validates(self, engine):
        buffer = TraceBuffer(sample_rate=1.0)
        queries = ("Allen", "comedy", "Scorsese", "Hanks")

        async def go(frontdoor):
            await asyncio.gather(*(frontdoor.submit(q) for q in queries))

        frontdoor = AsyncFrontDoor(
            engine, FrontDoorConfig(workers=2), traces=buffer
        )
        gated(frontdoor, lambda frontdoor, *_: go(frontdoor))
        assert len(buffer) == 4
        assert validate_chrome_trace(buffer.to_chrome()) == []

    def test_context_never_leaks_into_the_caller(self, engine):
        __, ___ = serve_one(engine)
        assert current_trace_id() is None


class TestTailBiasedCapture:
    """At sample_rate 0.0 nothing ordinary is kept — so everything
    below is in the buffer *only* because its trigger fired."""

    def test_answered_is_sampled_out_but_degraded_is_kept(self, engine):
        buffer = TraceBuffer(sample_rate=0.0)
        healthy = serve(engine, "Allen", traces=buffer)
        assert not healthy.degraded
        assert len(buffer) == 0  # sampled out
        # the deadline trips inside the engine: answered, partial
        degraded = serve(
            engine, "Allen", traces=buffer, deadline=AfterNChecks(0)
        )
        assert degraded.degraded
        [trace] = buffer.traces()
        assert trace.outcome == "degraded"
        assert trace.degraded_stage == degraded.degraded_stage

    def test_shed_full_is_always_captured(self, engine):
        buffer = TraceBuffer(sample_rate=0.0)
        frontdoor = AsyncFrontDoor(
            engine, FrontDoorConfig(max_pending=1), traces=buffer
        )

        async def body(frontdoor, gate, parked):
            blocker = asyncio.ensure_future(
                frontdoor.submit("Allen", deadline=parked)
            )
            await entered(parked)
            # fills the one pending slot
            queued = asyncio.ensure_future(frontdoor.submit("Drama"))
            await spin(lambda: frontdoor.pending() == 2, "queue full")
            with pytest.raises(QueueFull):
                await frontdoor.submit("comedy", tenant="acme")
            gate.set()
            await asyncio.gather(blocker, queued)

        gated(frontdoor, body)
        shed = [t for t in buffer.traces() if t.outcome == "shed_full"]
        [trace] = shed
        assert trace.context.tenant == "acme"
        assert trace.context.query == "comedy"
        assert trace.stage_names() == ["request", "shed"]

    def test_shed_tenant_quota_is_always_captured(self, engine):
        buffer = TraceBuffer(sample_rate=0.0)
        frontdoor = AsyncFrontDoor(
            engine,
            FrontDoorConfig(workers=2, tenant_slots=1),
            traces=buffer,
        )

        async def body(frontdoor, gate, parked):
            blocker = asyncio.ensure_future(
                frontdoor.submit("Allen", deadline=parked, tenant="acme")
            )
            await entered(parked)
            with pytest.raises(TenantQuotaExceeded):
                await frontdoor.submit("comedy", tenant="acme")
            gate.set()
            await blocker

        gated(frontdoor, body)
        kept = [
            t for t in buffer.traces()
            if t.outcome == "shed_tenant_quota"
        ]
        assert len(kept) == 1

    def test_shed_closed_is_always_captured(self, engine):
        buffer = TraceBuffer(sample_rate=0.0)
        frontdoor = AsyncFrontDoor(engine, traces=buffer)

        async def body(frontdoor, gate, parked):
            await frontdoor.close()
            with pytest.raises(ServiceClosed):
                await frontdoor.submit("Allen")

        gated(frontdoor, body)
        [trace] = buffer.traces()
        assert trace.outcome == "shed_closed"

    def test_retried_request_is_kept_with_retry_spans(self):
        db = paper_instance()
        engine_ = PrecisEngine(db, graph=movies_graph())
        engine_.ask("Allen")  # warm up: indexes built before the faults
        # one fault in the seed relation's read: RoundRobin reads the
        # other relations through get_many too, and a fault in each
        # would outlast the three attempts
        make_flaky(
            db, fail_times=1, methods=("get_many", "scan"), relations=("DIRECTOR",)
        )
        buffer = TraceBuffer(sample_rate=0.0)
        answer = serve(engine_, "Allen", traces=buffer)
        assert answer.found
        [trace] = buffer.traces()
        assert trace.outcome == "answered"
        assert trace.retries >= 1
        names = trace.stage_names()
        # the tree shows the failed attempt, the retry marker, and the
        # successful attempt — all under one request root
        assert names[0] == "request"
        assert "retry" in names
        assert names.count("ask") >= 2
        retry_spans = [
            span
            for span, __ in trace.root.walk()
            if span.name == "retry"
        ]
        assert retry_spans[0].counters["attempt"] == 1
        assert "TransientStorageError" in retry_spans[0].counters

    def test_slow_trigger_keeps_everything_at_zero_threshold(self, engine):
        buffer = TraceBuffer(sample_rate=0.0, slow_ms=0.0)
        __, buffer = serve_one(engine, buffer=buffer)
        assert len(buffer) == 1
        assert buffer.stats()["kept_triggered"] == 1


class TestCallerSuppliedTracer:
    def test_explicit_tracer_kwarg_is_not_overridden(self, engine):
        from repro.obs import InMemorySink, Tracer

        sink = InMemorySink()
        own = Tracer([sink])
        buffer = TraceBuffer(sample_rate=1.0)
        serve(engine, "Allen", traces=buffer, tracer=own)
        # the caller's tracer saw the ask; the service still traced the
        # request envelope (request/queue) without the engine tree
        assert sink.last.name == "ask"
        [trace] = buffer.traces()
        assert trace.stage_names()[:2] == ["request", "queue"]
