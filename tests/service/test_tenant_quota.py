"""Per-tenant fair-share admission: ``FrontDoorConfig.tenant_slots``.

The quota is checked once per flight, when the front door dispatches
it: a tenant whose flights already hold its slots is shed with
:class:`TenantQuotaExceeded` *without* touching other tenants' capacity
— the queue may be nearly empty. Slot accounting is exercised across
every release path: normal completion, a queue-full shed (which never
took a slot), and the close-time drain. Synchronization is event-based
(``GateDeadline``), never sleep-based.
"""

import asyncio
import threading

import pytest

from repro.core import PrecisEngine
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


def stack(engine, workers=2, **config):
    """A front door over *engine* (one slot per tenant unless
    overridden). Two workers by default: a second flight of the same
    tenant then reaches dispatch while the first still runs."""
    defaults = dict(tenant_slots=1)
    defaults.update(config)
    return AsyncFrontDoor(engine, FrontDoorConfig(workers=workers, **defaults))


def quota_run(frontdoor, body):
    """Run ``body(frontdoor, gate, parked)`` with a gated deadline at
    hand; always opens the gate and closes the front door."""

    async def go():
        gate = threading.Event()
        try:
            return await body(frontdoor, gate, GateDeadline(gate))
        finally:
            gate.set()
            await frontdoor.close()

    return run(go())


class TestQuota:
    def test_over_quota_tenant_is_shed(self, engine):
        frontdoor = stack(engine)

        async def body(frontdoor, gate, parked):
            running = asyncio.ensure_future(
                frontdoor.submit(QUERY, deadline=parked, tenant="a")
            )
            await entered(parked)  # a's slot occupied
            with pytest.raises(TenantQuotaExceeded) as excinfo:
                await frontdoor.submit("comedy", tenant="a")
            assert excinfo.value.tenant == "a"
            assert excinfo.value.slots == 1
            shed = frontdoor.metrics.registry.counter(
                "precis_service_tenant_shed_total",
                tenant="a",
                reason="tenant_quota",
            ).value
            gate.set()
            return shed, await running

        shed, answer = quota_run(frontdoor, body)
        assert shed == 1
        assert answer.found

    def test_other_tenants_unaffected(self, engine):
        frontdoor = stack(engine)

        async def body(frontdoor, gate, parked):
            running = asyncio.ensure_future(
                frontdoor.submit(QUERY, deadline=parked, tenant="a")
            )
            await entered(parked)
            with pytest.raises(TenantQuotaExceeded):
                await frontdoor.submit("comedy", tenant="a")
            # tenant b and anonymous traffic still run, on the free
            # worker, while a's flight holds the other one
            other = await frontdoor.submit("comedy", tenant="b")
            anonymous = await frontdoor.submit("Drama")
            gate.set()
            await running
            return other, anonymous

        other, anonymous = quota_run(frontdoor, body)
        assert other.found
        assert anonymous.found

    def test_slot_released_after_completion(self, engine):
        frontdoor = stack(engine)

        async def body(frontdoor, gate, parked):
            # sequential asks never trip a 1-slot quota
            for __ in range(3):
                assert (await frontdoor.submit(QUERY, tenant="a")).found
            return frontdoor.tenant_inflight("a")

        assert quota_run(frontdoor, body) == 0

    def test_slot_released_on_queue_full(self, engine):
        frontdoor = stack(
            engine, workers=1, max_pending=1, tenant_slots=4
        )

        async def body(frontdoor, gate, parked):
            running = asyncio.ensure_future(
                frontdoor.submit(QUERY, deadline=parked, tenant="a")
            )
            await entered(parked)
            # fills the pending queue; no slot until it is dispatched
            queued = asyncio.ensure_future(
                frontdoor.submit("comedy", tenant="a")
            )
            await spin(lambda: frontdoor.pending() == 2, "queue full")
            held = frontdoor.tenant_inflight("a")
            with pytest.raises(QueueFull):
                await frontdoor.submit("Drama", tenant="a")
            # the refused request never took a slot
            assert frontdoor.tenant_inflight("a") == held == 1
            gate.set()
            await running
            answer = await queued
            return answer, frontdoor.tenant_inflight("a")

        answer, after = quota_run(frontdoor, body)
        assert answer.found
        assert after == 0

    def test_slots_released_on_close_drain(self, engine):
        frontdoor = stack(engine, workers=1, tenant_slots=4)

        async def body(frontdoor, gate, parked):
            running = asyncio.ensure_future(
                frontdoor.submit(QUERY, deadline=parked, tenant="a")
            )
            await entered(parked)
            queued = [
                asyncio.ensure_future(frontdoor.submit(q, tenant="a"))
                for q in ("comedy", "Drama")
            ]
            await spin(lambda: frontdoor.pending() == 3, "queued")
            # close while flights are pending: the drain runs them all
            closer = asyncio.ensure_future(frontdoor.close())
            gate.set()
            await closer
            answers = [await running] + [await f for f in queued]
            return answers, frontdoor.tenant_inflight("a")

        answers, after = quota_run(frontdoor, body)
        assert all(answer.found for answer in answers)
        assert after == 0

    def test_quota_disabled_by_default(self, engine):
        frontdoor = stack(engine, tenant_slots=None)

        async def body(frontdoor, gate, parked):
            running = asyncio.ensure_future(
                frontdoor.submit(QUERY, deadline=parked, tenant="a")
            )
            await entered(parked)
            # each of these would be shed under a one-slot quota: a's
            # first flight still holds the other worker
            others = [
                await frontdoor.submit(q, tenant="a")
                for q in ("comedy", "Drama", "Woody", "Allen")
            ]
            gate.set()
            return [await running, *others]

        answers = quota_run(frontdoor, body)
        assert all(answer.found for answer in answers)

    def test_rejects_bad_tenant_slots(self):
        with pytest.raises(ValueError):
            FrontDoorConfig(tenant_slots=0)


class TestTenantMetrics:
    def test_tenant_labelled_series_alongside_fleet_series(self, engine):
        frontdoor = stack(engine, tenant_slots=4)

        async def body(frontdoor, gate, parked):
            await frontdoor.submit(QUERY, tenant="a")
            await frontdoor.submit(QUERY, tenant="a")
            await frontdoor.submit(QUERY, tenant="b")
            await frontdoor.submit(QUERY)  # anonymous: fleet series only

        quota_run(frontdoor, body)
        registry = frontdoor.metrics.registry
        assert (
            registry.counter(
                "precis_service_requests_total", priority="interactive"
            ).value
            == 4
        )
        assert (
            registry.counter(
                "precis_service_tenant_requests_total", tenant="a"
            ).value
            == 2
        )
        assert (
            registry.counter(
                "precis_service_tenant_requests_total", tenant="b"
            ).value
            == 1
        )
        text = frontdoor.metrics.prometheus()
        assert 'precis_service_tenant_requests_total{tenant="a"} 2' in text
        assert 'precis_service_tenant_seconds' in text
