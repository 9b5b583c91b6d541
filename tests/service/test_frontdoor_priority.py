"""Front-door priority classes: EDF ordering, preemption, starvation.

Dispatch order is observed by recording what the front door hands its
pool while the single worker (so the single dispatcher) is parked on a
gated flight — every ordering
assertion is therefore about the heap's decision, not about timing.
Event/gate-based throughout; no wall sleeps.
"""

import asyncio
import threading

import pytest

from repro.core import Deadline, PrecisEngine
from repro.datasets import movies_graph, paper_instance
from repro.service import (
    AsyncFrontDoor,
    FrontDoorConfig,
    QueueFull,
    TenantQuotaExceeded,
)

from .helpers import GateDeadline, entered, run, spin

QUERY = '"Woody Allen"'


@pytest.fixture()
def engine():
    return PrecisEngine(paper_instance(), graph=movies_graph())


def counter(frontdoor, name, **labels):
    return frontdoor.metrics.registry.counter(name, "", **labels).value


def recording_submit(frontdoor):
    """Wrap the submit of the front door's pool so dispatch order is
    observable."""
    order = []
    original = frontdoor._pool.submit

    def wrapper(query, **kwargs):
        order.append(query)
        return original(query, **kwargs)

    frontdoor._pool.submit = wrapper
    return order


class TestDispatchOrder:
    def test_interactive_dispatched_before_earlier_batch(self, engine):
        frontdoor = AsyncFrontDoor(engine)
        order = recording_submit(frontdoor)

        async def go():
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                blocker = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=parked)
                )
                await entered(parked)
                waiters = [
                    asyncio.ensure_future(
                        frontdoor.submit("drama", priority="batch")
                    ),
                    asyncio.ensure_future(
                        frontdoor.submit("comedy", priority="batch")
                    ),
                    asyncio.ensure_future(
                        frontdoor.submit("thriller", priority="interactive")
                    ),
                ]
                await spin(
                    lambda: frontdoor.pending() == 4, "queue build-up"
                )
                gate.set()
                await asyncio.gather(blocker, *waiters)
            finally:
                gate.set()
                await frontdoor.close()

        run(go())
        # the interactive latecomer jumps the whole batch backlog
        assert order == [QUERY, "thriller", "drama", "comedy"]

    def test_earliest_deadline_first_within_class(self, engine):
        frontdoor = AsyncFrontDoor(engine)
        order = recording_submit(frontdoor)

        async def go():
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                blocker = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=parked)
                )
                await entered(parked)
                loose = asyncio.ensure_future(
                    frontdoor.submit("drama", deadline=Deadline.after(100))
                )
                tight = asyncio.ensure_future(
                    frontdoor.submit("comedy", deadline=Deadline.after(50))
                )
                undated = asyncio.ensure_future(
                    frontdoor.submit("thriller")  # no deadline: last
                )
                await spin(
                    lambda: frontdoor.pending() == 4, "queue build-up"
                )
                gate.set()
                await asyncio.gather(blocker, loose, tight, undated)
            finally:
                gate.set()
                await frontdoor.close()

        run(go())
        # same class: nearest expiry wins, deadline-free requests last
        assert order == [QUERY, "comedy", "drama", "thriller"]

    def test_batch_backlog_cannot_starve_interactive(self, engine):
        frontdoor = AsyncFrontDoor(engine)
        order = recording_submit(frontdoor)

        async def go():
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                blocker = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=parked)
                )
                await entered(parked)
                backlog = [
                    asyncio.ensure_future(
                        frontdoor.submit(f"batch-{i}", priority="batch")
                    )
                    for i in range(6)
                ]
                urgent = asyncio.ensure_future(
                    frontdoor.submit(
                        "thriller", deadline=Deadline.after(30)
                    )
                )
                await spin(
                    lambda: frontdoor.pending() == 8, "queue build-up"
                )
                gate.set()
                answer = await urgent
                await asyncio.gather(blocker, *backlog)
                return answer
            finally:
                gate.set()
                await frontdoor.close()

        answer = run(go())
        # served immediately after the in-flight request, well inside
        # its deadline — the six earlier batch asks wait
        assert order[1] == "thriller"
        assert not answer.degraded

    def test_interactive_follower_upgrades_batch_flight(self, engine):
        frontdoor = AsyncFrontDoor(engine)
        order = recording_submit(frontdoor)

        async def go():
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                blocker = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=parked)
                )
                await entered(parked)
                batch_leader = asyncio.ensure_future(
                    frontdoor.submit("drama", priority="batch")
                )
                other_batch = asyncio.ensure_future(
                    frontdoor.submit("comedy", priority="batch")
                )
                await spin(
                    lambda: frontdoor.pending() == 3, "queue build-up"
                )
                follower = asyncio.ensure_future(
                    frontdoor.submit("drama", priority="interactive")
                )
                await spin(
                    lambda: counter(
                        frontdoor,
                        "precis_service_coalesced_total",
                        priority="interactive",
                    )
                    == 1,
                    "follower coalescing",
                )
                gate.set()
                results = await asyncio.gather(
                    blocker, batch_leader, other_batch, follower
                )
                return results
            finally:
                gate.set()
                await frontdoor.close()

        results = run(go())
        # the shared flight was promoted ahead of the older batch ask,
        # and one execution served both waiters
        assert order == [QUERY, "drama", "comedy"]
        assert results[1].to_dict() == results[3].to_dict()


class TestPreemption:
    def test_interactive_preempts_least_urgent_batch(self, engine):
        async def go():
            frontdoor = AsyncFrontDoor(
                engine,
                FrontDoorConfig(max_pending=2),
            )
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                blocker = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=parked)
                )
                await entered(parked)
                keep = asyncio.ensure_future(
                    frontdoor.submit(
                        "drama",
                        priority="batch",
                        deadline=Deadline.after(60),
                    )
                )
                await spin(lambda: frontdoor.pending() == 2, "first batch")
                victim = asyncio.ensure_future(
                    frontdoor.submit("comedy", priority="batch")
                )
                await spin(lambda: frontdoor.pending() == 3, "queue full")
                urgent = asyncio.ensure_future(
                    frontdoor.submit("thriller")
                )
                # the deadline-free batch flight is evicted, exactly once
                with pytest.raises(QueueFull):
                    await victim
                gate.set()
                answers = await asyncio.gather(blocker, keep, urgent)
                return answers, counter(
                    frontdoor,
                    "precis_service_shed_total",
                    reason="preempted",
                    priority="batch",
                )
            finally:
                gate.set()
                await frontdoor.close()

        answers, preempted = run(go())
        assert preempted == 1
        assert all(a is not None for a in answers)

    def test_no_batch_victim_sheds_full(self, engine):
        async def go():
            frontdoor = AsyncFrontDoor(
                engine, FrontDoorConfig(max_pending=1)
            )
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                blocker = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=parked)
                )
                await entered(parked)
                # the only pending flight is interactive: nothing to
                # preempt, so the next interactive arrival is shed full
                queued = asyncio.ensure_future(frontdoor.submit("drama"))
                await spin(lambda: frontdoor.pending() == 2, "queue full")
                with pytest.raises(QueueFull):
                    await frontdoor.submit("thriller")
                gate.set()
                await asyncio.gather(blocker, queued)
                return counter(
                    frontdoor,
                    "precis_service_shed_total",
                    reason="full",
                    priority="interactive",
                )
            finally:
                gate.set()
                await frontdoor.close()

        assert run(go()) == 1

    def test_batch_arrival_never_preempts(self, engine):
        async def go():
            frontdoor = AsyncFrontDoor(
                engine,
                FrontDoorConfig(max_pending=1),
            )
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                blocker = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=parked)
                )
                await entered(parked)
                queued = asyncio.ensure_future(
                    frontdoor.submit("drama", priority="batch")
                )
                await spin(lambda: frontdoor.pending() == 2, "queue full")
                with pytest.raises(QueueFull):
                    await frontdoor.submit("comedy", priority="batch")
                gate.set()
                await asyncio.gather(blocker, queued)
            finally:
                gate.set()
                await frontdoor.close()

        run(go())


class TestTenantQuota:
    def test_quota_shed_counted_once_per_logical_execution(self, engine):
        """Three coalesced waiters hit a tenant with no free slots: the
        quota shed is one event (one flight, one shed at dispatch) —
        not three — while every waiter still sees the error."""
        async def go():
            gate = threading.Event()
            parked = GateDeadline(gate)
            frontdoor = AsyncFrontDoor(
                engine, FrontDoorConfig(workers=2, tenant_slots=1)
            )
            try:
                # the tenant's only slot is held by an executing flight
                slot_holder = asyncio.ensure_future(
                    frontdoor.submit(QUERY, deadline=parked, tenant="acme")
                )
                await entered(parked)
                # all three duplicates are admitted/coalesced before the
                # idle dispatcher takes its next turn, so they share one
                # flight deterministically
                waiters = [
                    asyncio.ensure_future(
                        frontdoor.submit("drama", tenant="acme")
                    )
                    for _ in range(3)
                ]
                outcomes = await asyncio.gather(
                    *waiters, return_exceptions=True
                )
                observed = {
                    "coalesced": counter(
                        frontdoor,
                        "precis_service_coalesced_total",
                        priority="interactive",
                    ),
                    "quota_shed": counter(
                        frontdoor,
                        "precis_service_shed_total",
                        reason="tenant_quota",
                        priority="interactive",
                    ),
                    "executions": counter(
                        frontdoor, "precis_service_executions_total"
                    ),
                }
                gate.set()
                await slot_holder
                return outcomes, observed
            finally:
                gate.set()
                await frontdoor.close()

        outcomes, observed = run(go())
        assert all(
            isinstance(o, TenantQuotaExceeded) for o in outcomes
        ), outcomes
        assert observed == {
            "coalesced": 2,
            "quota_shed": 1,  # once per flight, not per waiter
            "executions": 1,  # only the slot holder reached the pool
        }
