"""Coalescing coherence: a follower is indistinguishable from a fresh ask.

The contract under test (ISSUE satellite): under concurrent submission
of duplicate and distinct asks, every coalesced waiter receives a
byte-identical PrecisAnswer to what an uncoalesced fresh ask would
produce; degraded and failed primary executions propagate the same
outcome to every waiter (no waiter hangs); and coalescing never crosses
weight fingerprints, so tenants with different effective weights cannot
leak answers to each other. Exercised over both storage backends.

Workers are parked on GateDeadline events to pin flights in the
in-flight window deterministically — no sleeps.
"""

import asyncio
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache import CacheConfig
from repro.core import PrecisEngine, WeightThreshold
from repro.datasets import generate_movies_database, movies_graph
from repro.obs import TraceBuffer
from repro.service import AsyncFrontDoor, FrontDoorConfig, RetryPolicy
from repro.storage import BACKEND_NAMES, PermanentStorageError

from .faults import AfterNChecks, make_flaky
from .helpers import GateDeadline, canonical, entered, run

QUERIES = ["midnight", "drama", "garcia", "thriller", "comedy"]
DEGREE = 0.5
TWO_WORKERS = FrontDoorConfig(workers=2)


def fresh_engine(backend):
    db = generate_movies_database(n_movies=60, seed=11, backend=backend)
    return PrecisEngine(db, graph=movies_graph())


def reference_answers(backend):
    """The uncoalesced oracle: a fresh single-threaded engine."""
    engine = fresh_engine(backend)
    return {
        q: canonical(engine.ask(q, degree=WeightThreshold(DEGREE)))
        for q in QUERIES
    }


@pytest.fixture(params=BACKEND_NAMES)
def stack(request):
    """A backend and a fresh engine over it (front doors over it run
    ``TWO_WORKERS``)."""
    backend = request.param
    return backend, fresh_engine(backend)


class TestCoalescedAnswers:
    def test_followers_get_byte_identical_answers(self, stack):
        backend, engine = stack
        expected = reference_answers(backend)

        async def go():
            frontdoor = AsyncFrontDoor(engine, TWO_WORKERS)
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                # pin both workers so the duplicate burst coalesces on
                # a flight that cannot resolve yet
                blockers = [
                    asyncio.ensure_future(
                        frontdoor.submit(
                            q, deadline=parked, degree=WeightThreshold(DEGREE)
                        )
                    )
                    for q in QUERIES[:2]
                ]
                await entered(parked)
                waiters = [
                    asyncio.ensure_future(
                        frontdoor.submit(
                            QUERIES[0], degree=WeightThreshold(DEGREE)
                        )
                    )
                    for _ in range(8)
                ]
                # let every waiter reach the flight table before release
                while (
                    frontdoor.metrics.registry.counter(
                        "precis_service_requests_total",
                        "",
                        priority="interactive",
                    ).value
                    < 10
                ):
                    await asyncio.sleep(0)
                gate.set()
                answers = await asyncio.gather(*waiters, *blockers)
                snapshot = frontdoor.metrics.snapshot()["counters"]
                return answers, snapshot
            finally:
                gate.set()
                await frontdoor.close()

        answers, counters = run(go())
        for answer, query in zip(answers, [QUERIES[0]] * 8 + QUERIES[:2]):
            assert canonical(answer) == expected[query]
        coalesced = counters.get(
            'precis_service_coalesced_total{priority="interactive"}', 0
        )
        assert coalesced >= 7  # 8 duplicates of one in-flight ask
        # every waiter answered, far fewer engine executions
        assert counters["precis_service_executions_total"] <= 3

    def test_distinct_signatures_never_share_a_flight(self, stack):
        __, engine = stack

        async def go():
            frontdoor = AsyncFrontDoor(engine, TWO_WORKERS)
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                blockers = [
                    asyncio.ensure_future(
                        frontdoor.submit(QUERIES[1], deadline=parked)
                    ),
                    asyncio.ensure_future(
                        frontdoor.submit(QUERIES[2], deadline=parked)
                    ),
                ]
                await entered(parked)
                # same query text, different degree constraint -> a
                # different answer signature -> its own flight
                a = asyncio.ensure_future(
                    frontdoor.submit(
                        QUERIES[0], degree=WeightThreshold(0.5)
                    )
                )
                b = asyncio.ensure_future(
                    frontdoor.submit(
                        QUERIES[0], degree=WeightThreshold(0.9)
                    )
                )
                gate.set()
                await asyncio.gather(a, b, *blockers)
                return frontdoor.metrics.snapshot()["counters"]
            finally:
                gate.set()
                await frontdoor.close()

        counters = run(go())
        assert (
            counters.get(
                'precis_service_coalesced_total{priority="interactive"}', 0
            )
            == 0
        )

    def test_coalescing_disabled_by_config(self, stack):
        __, engine = stack

        async def go():
            frontdoor = AsyncFrontDoor(
                engine, FrontDoorConfig(workers=2, coalesce=False)
            )
            try:
                await asyncio.gather(
                    *(frontdoor.submit(QUERIES[0]) for _ in range(5))
                )
                return frontdoor.metrics.snapshot()["counters"]
            finally:
                await frontdoor.close()

        counters = run(go())
        assert counters["precis_service_executions_total"] == 5
        assert not any("coalesced" in key for key in counters)


class TestTenantIsolation:
    """Coalescing is keyed by the weight fingerprint: identical
    fingerprints share (by design — the answers are byte-identical);
    different fingerprints never do."""

    #: a projection-edge weight override — tenant identity lives in
    #: the weight fingerprint of the effective (overlaid) graph
    TITLE = ("proj", "MOVIE", "TITLE")

    def test_different_fingerprints_never_coalesce(self, stack):
        backend, engine = stack
        # sanity of the key itself, engine-level: the signatures differ
        sig_plain = engine.ask_signature(QUERIES[0])
        sig_overlay = engine.ask_signature(
            QUERIES[0], weights={self.TITLE: 0.25}
        )
        assert sig_plain is not None and sig_overlay is not None
        assert sig_plain != sig_overlay

        async def go():
            frontdoor = AsyncFrontDoor(engine, TWO_WORKERS)
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                blockers = [
                    asyncio.ensure_future(
                        frontdoor.submit(QUERIES[3], deadline=parked)
                    ),
                    asyncio.ensure_future(
                        frontdoor.submit(QUERIES[4], deadline=parked)
                    ),
                ]
                await entered(parked)
                plain = asyncio.ensure_future(
                    frontdoor.submit(QUERIES[0], tenant="acme")
                )
                overlaid = asyncio.ensure_future(
                    frontdoor.submit(
                        QUERIES[0],
                        tenant="umbrella",
                        weights={self.TITLE: 0.25},
                    )
                )
                gate.set()
                await asyncio.gather(plain, overlaid, *blockers)
                return frontdoor.metrics.snapshot()["counters"]
            finally:
                gate.set()
                await frontdoor.close()

        counters = run(go())
        assert (
            counters.get(
                'precis_service_coalesced_total{priority="interactive"}', 0
            )
            == 0
        )

    def test_same_fingerprint_shares_across_tenant_labels(self, stack):
        """Two tenants with the same effective weights produce
        byte-identical answers; sharing the execution is the point."""
        backend, engine = stack
        expected = reference_answers(backend)

        async def go():
            frontdoor = AsyncFrontDoor(engine, TWO_WORKERS)
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                blockers = [
                    asyncio.ensure_future(
                        frontdoor.submit(QUERIES[1], deadline=parked)
                    ),
                    asyncio.ensure_future(
                        frontdoor.submit(QUERIES[2], deadline=parked)
                    ),
                ]
                await entered(parked)
                a = asyncio.ensure_future(
                    frontdoor.submit(
                        QUERIES[0],
                        tenant="acme",
                        degree=WeightThreshold(DEGREE),
                    )
                )
                b = asyncio.ensure_future(
                    frontdoor.submit(
                        QUERIES[0],
                        tenant="umbrella",
                        degree=WeightThreshold(DEGREE),
                    )
                )
                gate.set()
                first, second, *__ = await asyncio.gather(a, b, *blockers)
                return first, second, frontdoor.metrics.snapshot()[
                    "counters"
                ]
            finally:
                gate.set()
                await frontdoor.close()

        first, second, counters = run(go())
        assert canonical(first) == canonical(second) == expected[QUERIES[0]]
        assert (
            counters.get(
                'precis_service_coalesced_total{priority="interactive"}', 0
            )
            == 1
        )


class TestOutcomePropagation:
    def test_failed_execution_propagates_to_all_waiters(self):
        db = generate_movies_database(n_movies=40, seed=5)
        engine = PrecisEngine(db, graph=movies_graph())
        # wrap *after* the index build so faults strike mid-ask; a
        # permanent error is not retried, so one execution fails once
        make_flaky(
            db, fail_times=10_000, error=PermanentStorageError,
            methods=("lookup", "scan", "lookup_in"),
        )
        config = FrontDoorConfig(workers=1, retry=RetryPolicy(attempts=1))

        async def go():
            frontdoor = AsyncFrontDoor(engine, config)
            try:
                waiters = [
                    asyncio.ensure_future(frontdoor.submit(QUERIES[0]))
                    for _ in range(4)
                ]
                results = await asyncio.gather(
                    *waiters, return_exceptions=True
                )
                return results, frontdoor.metrics.snapshot()["counters"]
            finally:
                await frontdoor.close()

        results, counters = run(go())
        assert len(results) == 4
        assert all(
            isinstance(r, PermanentStorageError) for r in results
        ), results
        # the one execution failed once: failures are counted per
        # flight, and none of the four waiters was answered
        assert counters['precis_service_failures_total{kind="permanent"}'] == 1
        assert counters["precis_service_executions_total"] == 1
        assert (
            counters.get(
                'precis_service_answered_total{priority="interactive"}', 0
            )
            == 0
        )

    def test_degraded_execution_propagates_to_all_waiters(self, stack):
        # a dedicated one-worker stack; the shared deadline trips at the
        # engine's first cooperative check, so the one execution
        # *degrades* deterministically and every waiter gets it
        db = generate_movies_database(n_movies=60, seed=11)
        engine = PrecisEngine(db, graph=movies_graph())

        async def go():
            frontdoor = AsyncFrontDoor(engine)
            try:
                expiring = AfterNChecks(0)
                waiters = [
                    asyncio.ensure_future(
                        frontdoor.submit(QUERIES[0], deadline=expiring)
                    )
                    for _ in range(3)
                ]
                answers = await asyncio.gather(*waiters)
                return answers, frontdoor.metrics.snapshot()["counters"]
            finally:
                await frontdoor.close()

        answers, counters = run(go())
        assert all(a.degraded for a in answers)
        assert len({canonical(a) for a in answers}) == 1
        assert counters["precis_service_executions_total"] == 1


class TestFollowerTraces:
    def test_followers_annotate_coalesced_into_leader(self):
        db = generate_movies_database(n_movies=40, seed=11)
        engine = PrecisEngine(db, graph=movies_graph())
        traces = TraceBuffer(capacity=64, sample_rate=1.0)

        async def go():
            frontdoor = AsyncFrontDoor(engine, traces=traces)
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                blocker = asyncio.ensure_future(
                    frontdoor.submit(QUERIES[1], deadline=parked)
                )
                await entered(parked)
                leader = asyncio.ensure_future(
                    frontdoor.submit(QUERIES[0])
                )
                while not frontdoor._flights:
                    await asyncio.sleep(0)
                followers = [
                    asyncio.ensure_future(frontdoor.submit(QUERIES[0]))
                    for _ in range(3)
                ]
                gate.set()
                await asyncio.gather(leader, blocker, *followers)
            finally:
                gate.set()
                await frontdoor.close()

        run(go())
        kept = traces.traces()
        followers = [t for t in kept if t.coalesced_into is not None]
        leaders = [
            t
            for t in kept
            if t.coalesced_into is None and t.context.query == QUERIES[0]
        ]
        assert len(followers) == 3
        assert len(leaders) == 1  # one engine execution trace
        assert {t.coalesced_into for t in followers} == {
            leaders[0].trace_id
        }
        # each follower carries its own request span + coalesced child
        for trace in followers:
            assert trace.stage_names() == ["request", "coalesced"]
        # serde round-trips the annotation
        from repro.obs.context import RequestTrace

        payload = followers[0].to_dict()
        assert (
            RequestTrace.from_dict(payload).coalesced_into
            == leaders[0].trace_id
        )


    def test_degraded_follower_trace_names_its_stage(self):
        db = generate_movies_database(n_movies=40, seed=11)
        engine = PrecisEngine(db, graph=movies_graph())
        traces = TraceBuffer(capacity=64, sample_rate=1.0)

        async def go():
            async with AsyncFrontDoor(engine, traces=traces) as frontdoor:
                # the shared deadline trips at the engine's first check:
                # one degraded execution, fanned out to two followers
                expiring = AfterNChecks(0)
                waiters = [
                    asyncio.ensure_future(
                        frontdoor.submit(QUERIES[0], deadline=expiring)
                    )
                    for _ in range(3)
                ]
                return await asyncio.gather(*waiters)

        answers = run(go())
        [stage] = {answer.degraded_stage for answer in answers}
        assert stage is not None
        kept = traces.traces()
        assert sum(t.coalesced_into is not None for t in kept) == 2
        # the leader's trace (the pool's) and each follower's alike
        assert [(t.outcome, t.degraded_stage) for t in kept] == [
            ("degraded", stage)
        ] * 3


# --------------------------------------------------------------- property


@st.composite
def workloads(draw):
    """A concurrent submission plan: (query_index, n_duplicates)."""
    return draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(QUERIES) - 1),
                st.integers(min_value=1, max_value=4),
            ),
            min_size=1,
            max_size=6,
        )
    )


class TestCoalescingCoherenceProperty:
    """Hypothesis: random concurrent mixes of duplicate and distinct
    asks, with and without an answer cache, always produce answers
    byte-identical to the fresh-engine oracle — and nobody hangs."""

    @pytest.mark.parametrize("property_backend", BACKEND_NAMES)
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[
            HealthCheck.function_scoped_fixture,
            HealthCheck.too_slow,
        ],
    )
    @given(plan=workloads(), cached=st.booleans())
    def test_concurrent_duplicates_match_oracle(
        self, property_backend, plan, cached
    ):
        expected = _ORACLES[property_backend]
        db = generate_movies_database(
            n_movies=60, seed=11, backend=property_backend
        )
        engine = PrecisEngine(
            db,
            graph=movies_graph(),
            cache=CacheConfig(answers=True) if cached else None,
        )
        async def go():
            frontdoor = AsyncFrontDoor(engine, TWO_WORKERS)
            try:
                tasks = []
                labels = []
                for index, duplicates in plan:
                    for __ in range(duplicates):
                        labels.append(QUERIES[index])
                        tasks.append(
                            asyncio.ensure_future(
                                frontdoor.submit(
                                    QUERIES[index],
                                    degree=WeightThreshold(DEGREE),
                                )
                            )
                        )
                answers = await asyncio.wait_for(
                    asyncio.gather(*tasks), timeout=60
                )
                counters = frontdoor.metrics.snapshot()["counters"]
                return answers, labels, counters
            finally:
                await frontdoor.close()

        answers, labels, counters = run(go())
        for answer, query in zip(answers, labels):
            assert canonical(answer) == expected[query]
        submitted = len(labels)
        executed = counters["precis_service_executions_total"]
        coalesced = counters.get(
            'precis_service_coalesced_total{priority="interactive"}', 0
        )
        assert executed + coalesced == submitted
        assert (
            counters[
                'precis_service_answered_total{priority="interactive"}'
            ]
            == submitted
        )


#: per-backend oracle answers, computed once — hypothesis re-runs the
#: test body many times and the oracle never changes
_ORACLES = {
    backend: reference_answers(backend) for backend in BACKEND_NAMES
}
