"""Concurrency regressions: one shared Tracer (and engine) across threads.

The span stack is per-thread state (``threading.local``): before that,
two threads tracing simultaneously would parent their spans into each
other's trees or blow up closing a span another thread pushed.

Synchronization here is purely event-based — barriers to force the
interleaving under test, ``Barrier.abort()`` on failure so a crashed
peer releases the survivor immediately, and liveness asserts after
``join`` so a hang fails the test at the join site instead of
cascading into a confusing downstream assertion. No wall-clock sleeps:
timing-based coordination is exactly the nondeterminism this suite
exists to catch.
"""

import threading

from repro.core import MaxTuplesPerRelation, PrecisEngine
from repro.datasets import movies_graph, paper_instance
from repro.obs import InMemorySink, Tracer
from repro.obs.context import TraceBuffer, current_trace_id


class TestTracerThreadLocalStack:
    def test_two_threads_build_disjoint_trees(self):
        sink = InMemorySink()
        tracer = Tracer([sink])
        barrier = threading.Barrier(2)
        errors: list[BaseException] = []

        def work(label: str) -> None:
            try:
                for __ in range(50):
                    with tracer.span(f"ask-{label}"):
                        barrier.wait(timeout=5)
                        with tracer.span(f"inner-{label}"):
                            tracer.count(f"count-{label}", 1)
            except BaseException as exc:  # propagate to the main thread
                errors.append(exc)
                # release the peer at once rather than letting it block
                # through up to 50 barrier timeouts
                barrier.abort()

        threads = [
            threading.Thread(target=work, args=(label,), daemon=True)
            for label in ("a", "b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive(), "tracer worker hung"
        assert not errors
        assert len(sink.spans) == 100
        for root in sink.spans:
            # every root holds exactly its own thread's child — no
            # cross-thread adoption, no counters leaking across trees
            label = root.name.rsplit("-", 1)[1]
            assert [c.name for c in root.children] == [f"inner-{label}"]
            assert root.total_counters() == {f"count-{label}": 1}

    def test_interleaved_spans_in_one_thread_still_nest(self):
        # sanity: the thread-local property must not change single-thread
        # nesting semantics
        sink = InMemorySink()
        tracer = Tracer([sink])
        with tracer.span("outer"):
            with tracer.span("mid"):
                with tracer.span("leaf"):
                    pass
        assert sink.last.find("mid").children[0].name == "leaf"


class TestEngineSharedAcrossThreads:
    def test_concurrent_asks_with_metrics(self):
        engine = PrecisEngine(
            paper_instance(), graph=movies_graph(), metrics=True
        )
        errors: list[BaseException] = []

        def work(query: str) -> None:
            try:
                for __ in range(10):
                    engine.ask(
                        query, cardinality=MaxTuplesPerRelation(3)
                    )
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(query,), daemon=True)
            for query in ("Allen", "comedy", "Scorsese", "Hanks")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "engine worker hung"
        assert not errors
        snapshot = engine.metrics_snapshot()
        assert snapshot["counters"]["precis_asks_total"] == 40
        assert snapshot["histograms"]["precis_ask_seconds"]["count"] == 40


class TestTraceContextUnderTenantStress:
    """Context propagation across the dispatch boundary under
    contention: 8 tenant clients hammer one front door over a 2-worker
    pool with tracing at sample rate 1.0. Every completed request must
    produce exactly one trace tree, attributed to the right tenant and
    query, with no span adopted from a neighbouring request.
    Coalescing is off, so every request is its own execution."""

    def test_one_clean_trace_tree_per_request(self):
        import asyncio

        from repro.service import (
            AsyncFrontDoor,
            FrontDoorConfig,
            PrecisService,
            ServiceConfig,
        )

        engine = PrecisEngine(paper_instance(), graph=movies_graph())
        tenants = [f"tenant-{i}" for i in range(8)]
        queries = ("Allen", "comedy", "Scorsese", "Hanks")
        requests_per_tenant = 6
        total = len(tenants) * requests_per_tenant
        buffer = TraceBuffer(capacity=total, sample_rate=1.0)
        expected: dict[str, tuple[str, str]] = {}  # id -> (tenant, query)

        async def client(frontdoor, tenant: str, offset: int) -> None:
            for i in range(requests_per_tenant):
                query = queries[(offset + i) % len(queries)]
                answer = await frontdoor.submit(query, tenant=tenant)
                trace_id = answer.explanation.trace_id
                assert trace_id is not None
                expected[trace_id] = (tenant, query)
                # the worker's ambient context must never bleed into
                # the submitting side
                assert current_trace_id() is None

        async def go(service):
            async with AsyncFrontDoor(
                service, FrontDoorConfig(coalesce=False)
            ) as frontdoor:
                await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            client(frontdoor, tenant, i)
                            for i, tenant in enumerate(tenants)
                        )
                    ),
                    timeout=120,
                )

        with PrecisService(
            engine, config=ServiceConfig(workers=2), traces=buffer
        ) as service:
            asyncio.run(go(service))

        traces = buffer.traces()
        # exactly one trace per completed request, every id unique
        assert len(traces) == total
        ids = [trace.trace_id for trace in traces]
        assert len(set(ids)) == total
        assert set(ids) == set(expected)

        for trace in traces:
            tenant, query = expected[trace.trace_id]
            assert trace.outcome == "answered"
            assert trace.context.tenant == tenant
            assert trace.context.query == query
            names = trace.stage_names()
            # one request envelope, one queue wait, exactly one engine
            # ask — a leaked span from a concurrent request would show
            # up as a duplicate here
            assert names[0] == "request"
            assert names.count("request") == 1
            assert names.count("queue") == 1
            assert names.count("ask") == 1
        # workers recorded on every trace are real pool threads
        assert {trace.worker for trace in traces} <= {
            "precis-worker-0",
            "precis-worker-1",
        }
