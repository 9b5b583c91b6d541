"""Fault injection: retry/backoff, exhaustion, and state consistency.

Uses :class:`.faults.FlakyStore` to make the storage layer fail
mid-pipeline — between index probe and tuple fetch — and asserts the
serving layer's contract: transient faults retry with exponential
backoff and eventually succeed; exhaustion surfaces as
:class:`RetryExhausted`; permanent faults surface immediately; and a
failed ask never leaves the answer cache or the metrics registry
inconsistent.
"""

import pytest

from repro.cache import CacheConfig
from repro.core import PrecisEngine, WeightThreshold
from repro.datasets import movies_graph, paper_instance
from repro.service import (
    AsyncFrontDoor,
    FrontDoorConfig,
    RetryExhausted,
    RetryPolicy,
    call_with_retry,
)
from repro.storage import (
    PermanentStorageError,
    TransientStorageError,
)

from .faults import FlakyStore, make_flaky
from .helpers import run

QUERY = '"Woody Allen"'


class TestRetryPolicy:
    def test_delays_grow_exponentially(self):
        policy = RetryPolicy(attempts=4, base_delay_s=0.01, multiplier=2.0)
        assert [policy.delay_before(n) for n in (1, 2, 3)] == [
            0.01,
            0.02,
            0.04,
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}
        slept = []

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientStorageError("locked")
            return "ok"

        policy = RetryPolicy(attempts=3, base_delay_s=0.01, multiplier=2.0)
        result = call_with_retry(flaky, policy, sleep=slept.append)
        assert result == "ok"
        assert calls["n"] == 3
        assert slept == [0.01, 0.02]  # backoff actually backs off

    def test_exhaustion_raises_with_cause(self):
        def always_failing():
            raise TransientStorageError("busy")

        policy = RetryPolicy(attempts=3, base_delay_s=0.0)
        with pytest.raises(RetryExhausted) as exc_info:
            call_with_retry(always_failing, policy, sleep=lambda s: None)
        assert exc_info.value.attempts == 3
        assert isinstance(exc_info.value.__cause__, TransientStorageError)

    def test_permanent_error_is_not_retried(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise PermanentStorageError("corrupt")

        with pytest.raises(PermanentStorageError):
            call_with_retry(
                broken, RetryPolicy(attempts=5), sleep=lambda s: None
            )
        assert calls["n"] == 1

    def test_unrelated_errors_pass_through(self):
        def buggy():
            raise KeyError("not a storage problem")

        with pytest.raises(KeyError):
            call_with_retry(
                buggy, RetryPolicy(attempts=5), sleep=lambda s: None
            )

    def test_on_retry_hook_sees_each_attempt(self):
        seen = []

        def flaky():
            if len(seen) < 2:
                raise TransientStorageError("locked")
            return 42

        call_with_retry(
            flaky,
            RetryPolicy(attempts=3, base_delay_s=0.0),
            sleep=lambda s: None,
            on_retry=lambda attempt, exc: seen.append(attempt),
        )
        assert seen == [1, 2]


RETRY = RetryPolicy(attempts=12, base_delay_s=0.0)


def build_frontdoor(fail_times, methods=None, error=TransientStorageError):
    """A single-worker front door over a paper instance whose stores
    fail the first *fail_times* calls per method. Retries back off
    through a recorded no-op sleep, so tests stay instant."""
    db = paper_instance()
    engine = PrecisEngine(
        db, graph=movies_graph(), cache=CacheConfig(answers=True)
    )
    # wrap *after* the index build so faults strike mid-ask, not mid-init
    wrappers = make_flaky(
        db, fail_times=fail_times, methods=methods, error=error
    )
    # fail_times is per *store*: one ask touches several relations, so
    # the first-strike test needs one attempt per relation plus slack
    frontdoor = AsyncFrontDoor(engine, FrontDoorConfig(workers=1, retry=RETRY))
    return frontdoor, engine, wrappers


def served(frontdoor, body):
    """Run ``body(frontdoor)`` on a fresh loop; closes the front door."""

    async def go():
        async with frontdoor:
            return await body(frontdoor)

    return run(go())


class TestServiceUnderFaults:
    def test_transient_faults_are_retried_to_success(self):
        frontdoor, engine, wrappers = build_frontdoor(
            fail_times=1, methods={"get_many"}
        )

        async def body(frontdoor):
            return await frontdoor.submit(QUERY, degree=WeightThreshold(0.5))

        answer = served(frontdoor, body)
        assert answer.found
        assert not answer.degraded
        registry = frontdoor.metrics.registry
        assert registry.counter("precis_service_retries_total").value >= 1
        assert (
            registry.counter("precis_service_retry_exhausted_total").value
            == 0
        )
        # the fault really struck: the wrapped method failed once
        assert any(w.failures["get_many"] for w in wrappers.values())

    def test_retry_exhaustion_surfaces_and_counts(self):
        frontdoor, engine, wrappers = build_frontdoor(
            fail_times=10_000, methods={"get_many"}
        )

        async def body(frontdoor):
            with pytest.raises(RetryExhausted) as exc_info:
                await frontdoor.submit(QUERY, degree=WeightThreshold(0.5))
            return exc_info

        exc_info = served(frontdoor, body)
        assert isinstance(exc_info.value.last_error, TransientStorageError)
        registry = frontdoor.metrics.registry
        assert (
            registry.counter("precis_service_retry_exhausted_total").value
            == 1
        )
        assert (
            registry.counter(
                "precis_service_failures_total", kind="transient"
            ).value
            == 1
        )

    def test_permanent_fault_fails_fast(self):
        frontdoor, engine, wrappers = build_frontdoor(
            fail_times=10_000,
            methods={"get_many"},
            error=PermanentStorageError,
        )

        async def body(frontdoor):
            with pytest.raises(PermanentStorageError):
                await frontdoor.submit(QUERY, degree=WeightThreshold(0.5))

        served(frontdoor, body)
        registry = frontdoor.metrics.registry
        assert (
            registry.counter(
                "precis_service_failures_total", kind="permanent"
            ).value
            == 1
        )
        assert registry.counter("precis_service_retries_total").value == 0
        # exactly one strike per ask: no retry loop ran
        struck = [w for w in wrappers.values() if w.failures["get_many"]]
        assert all(w.failures["get_many"] == 1 for w in struck)

    def test_failed_ask_leaves_caches_and_metrics_consistent(self):
        frontdoor, engine, wrappers = build_frontdoor(
            fail_times=10_000, methods={"get_many"}
        )

        async def body(frontdoor):
            with pytest.raises(RetryExhausted):
                await frontdoor.submit(QUERY, degree=WeightThreshold(0.5))
            # nothing half-built may be cached
            assert len(engine.cache.answers) == 0
            # the in-flight gauges went back down despite the failure
            assert frontdoor.metrics.inflight.value == 0
            assert frontdoor.metrics.pending.value == 0
            # heal the stores: the same front door must now answer
            # cleanly
            for wrapper in wrappers.values():
                wrapper.heal()
            answer = await frontdoor.submit(
                QUERY, degree=WeightThreshold(0.5)
            )
            assert answer.found
            assert len(engine.cache.answers) == 1
            # and the cached entry serves identical bytes
            again = await frontdoor.submit(QUERY, degree=WeightThreshold(0.5))
            assert again.to_dict() == answer.to_dict()

        served(frontdoor, body)

    def test_mid_ask_fault_does_not_poison_plan_cache(self):
        frontdoor, engine, wrappers = build_frontdoor(
            fail_times=10_000, methods={"get_many"}
        )

        async def body(frontdoor):
            with pytest.raises(RetryExhausted):
                await frontdoor.submit(QUERY, degree=WeightThreshold(0.5))
            for wrapper in wrappers.values():
                wrapper.heal()
            # a cached plan from the failed run must still be *valid* —
            # the healed ask answers identically to a fresh engine
            return await frontdoor.submit(QUERY, degree=WeightThreshold(0.5))

        healed = served(frontdoor, body)
        fresh = PrecisEngine(paper_instance(), graph=movies_graph()).ask(
            QUERY, degree=WeightThreshold(0.5)
        )
        assert healed.to_dict() == fresh.to_dict()


class TestFlakyStoreItself:
    def test_fails_then_delegates(self, tiny_db_memory):
        relation = tiny_db_memory.relation("PARENT")
        wrapper = FlakyStore(relation.store, fail_times=2)
        relation.store = wrapper
        for __ in range(2):
            with pytest.raises(TransientStorageError):
                relation.fetch(1)
        row = relation.fetch(1)
        assert row["NAME"] == "alpha"
        assert wrapper.calls["get"] == 3
        assert wrapper.failures["get"] == 2

    def test_counters_are_per_method(self, tiny_db_memory):
        relation = tiny_db_memory.relation("PARENT")
        wrapper = FlakyStore(
            relation.store, fail_times=1, methods={"get", "lookup"}
        )
        relation.store = wrapper
        with pytest.raises(TransientStorageError):
            relation.fetch(1)
        assert relation.fetch(1)["NAME"] == "alpha"  # get healed
        with pytest.raises(TransientStorageError):
            relation.lookup("NAME", "alpha")  # lookup fails once too
        assert relation.lookup("NAME", "alpha")
        assert wrapper.failures["get"] == 1
        assert wrapper.failures["lookup"] == 1

    @pytest.fixture()
    def tiny_db_memory(self, tiny_schema):
        from repro.relational import Database

        db = Database(tiny_schema)
        db.insert("PARENT", {"PID": 1, "NAME": "alpha"})
        db.insert("PARENT", {"PID": 2, "NAME": "beta"})
        return db
