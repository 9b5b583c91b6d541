"""Service-level objectives over the shared metrics registry
(repro.obs.slo): availability and latency compliance, error-budget burn
rates, and the no-traffic convention (nothing has violated anything).
"""

import asyncio
import json
import threading

import pytest

from repro.core import Deadline, PrecisEngine
from repro.datasets import movies_graph, paper_instance
from repro.obs import MetricsRegistry, ServiceMetrics
from repro.obs.slo import SLObjective, SLOTracker, default_objectives
from repro.service import (
    AsyncFrontDoor,
    FrontDoorConfig,
    PrecisService,
    QueueFull,
    ServiceConfig,
    StaleRequest,
)

from tests.service.helpers import GateDeadline, entered, run, spin

PRIORITY = "interactive"


def serve(metrics, n, seconds=0.010, tenant=None):
    """*n* callers answered in *seconds* each."""
    for __ in range(n):
        metrics.submitted(PRIORITY, tenant=tenant)
        metrics.answered(seconds, PRIORITY, tenant=tenant)
        metrics.resolved()


def refuse(metrics, n, reason="full"):
    """*n* callers shed."""
    for __ in range(n):
        metrics.submitted(PRIORITY)
        metrics.shed(reason, PRIORITY)
        metrics.resolved()


def fail(metrics, n, kind="transient"):
    """*n* callers whose execution failed."""
    for __ in range(n):
        metrics.submitted(PRIORITY)
        metrics.failed(kind)
        metrics.resolved()


class TestSLObjective:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLObjective("x", "throughput", 0.99)
        with pytest.raises(ValueError):
            SLObjective("x", "availability", 0.0)
        with pytest.raises(ValueError):
            SLObjective("x", "availability", 1.5)
        with pytest.raises(ValueError):
            SLObjective("x", "latency", 0.95)  # no threshold

    def test_defaults_are_the_stock_pair(self):
        kinds = [(o.kind, o.target) for o in default_objectives()]
        assert kinds == [("availability", 0.99), ("latency", 0.95)]


class TestAvailability:
    def test_all_answered_is_fully_compliant(self):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry)
        serve(metrics, 10)
        entry = SLOTracker(registry).evaluate(
            SLObjective("avail", "availability", 0.99)
        )
        assert entry["compliance"] == 1.0
        assert entry["met"] is True
        assert entry["burn_rate"] == 0.0
        assert entry["bad_events"] == 0
        assert entry["total_events"] == 10

    def test_sheds_and_failures_burn_the_budget(self):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry)
        serve(metrics, 90)
        refuse(metrics, 8)
        fail(metrics, 1, "transient")
        fail(metrics, 1, "permanent")
        # 100 resolved, 10 bad (8 shed + 2 failed)
        entry = SLOTracker(registry).evaluate(
            SLObjective("avail", "availability", 0.99)
        )
        assert entry["compliance"] == pytest.approx(0.90)
        assert entry["met"] is False
        # burning 10% of traffic against a 1% budget: 10x
        assert entry["burn_rate"] == pytest.approx(10.0)
        assert entry["bad_events"] == 10
        assert entry["total_events"] == 100

    def test_exactly_on_target_is_met(self):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry)
        serve(metrics, 99)
        fail(metrics, 1)
        entry = SLOTracker(registry).evaluate(
            SLObjective("avail", "availability", 0.99)
        )
        assert entry["compliance"] == pytest.approx(0.99)
        assert entry["met"] is True
        assert entry["burn_rate"] == pytest.approx(1.0)


class TestLatency:
    def test_compliance_reads_the_histogram_buckets(self):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry)
        serve(metrics, 9, seconds=0.010)
        serve(metrics, 1, seconds=10.0)  # one way over any threshold
        entry = SLOTracker(registry).evaluate(
            SLObjective("lat", "latency", 0.95, threshold_ms=500.0)
        )
        assert entry["compliance"] == pytest.approx(0.9)
        assert entry["met"] is False
        # 10% bad against a 5% budget
        assert entry["burn_rate"] == pytest.approx(2.0)
        assert entry["bad_events"] == 1
        assert entry["total_events"] == 10

    def test_threshold_above_every_bound_is_fully_compliant(self):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry)
        serve(metrics, 5, seconds=0.001)
        entry = SLOTracker(registry).evaluate(
            SLObjective("lat", "latency", 0.95, threshold_ms=1e9)
        )
        assert entry["compliance"] == 1.0
        assert entry["met"] is True

    def test_missing_histogram_counts_as_no_traffic(self):
        entry = SLOTracker(MetricsRegistry()).evaluate(
            SLObjective("lat", "latency", 0.95, threshold_ms=500.0)
        )
        assert entry["compliance"] is None
        assert entry["met"] is True
        assert entry["burn_rate"] == 0.0


class TestSnapshot:
    def test_no_traffic_meets_everything(self):
        snapshot = SLOTracker(MetricsRegistry()).snapshot()
        assert snapshot["all_met"] is True
        assert snapshot["max_burn_rate"] == 0.0
        assert [o["name"] for o in snapshot["objectives"]] == [
            "availability-99",
            "latency-p95-500ms",
        ]

    def test_snapshot_is_json_compatible(self):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry)
        serve(metrics, 3)
        refuse(metrics, 1)
        parsed = json.loads(json.dumps(SLOTracker(registry).snapshot()))
        assert parsed["objectives"][0]["kind"] == "availability"
        assert isinstance(parsed["max_burn_rate"], float)

    def test_max_burn_rate_tracks_the_worst_objective(self):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry)
        serve(metrics, 50)
        refuse(metrics, 50)
        snapshot = SLOTracker(registry).snapshot()
        assert snapshot["all_met"] is False
        # availability burn: 50% bad / 1% budget = 50x
        assert snapshot["max_burn_rate"] == pytest.approx(50.0)

    def test_custom_objectives_replace_defaults(self):
        registry = MetricsRegistry()
        tracker = SLOTracker(
            registry, objectives=[SLObjective("only", "availability", 0.5)]
        )
        assert [o["name"] for o in tracker.snapshot()["objectives"]] == [
            "only"
        ]


class TestInflightAndClasses:
    def test_unresolved_requests_are_not_yet_events(self):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry)
        serve(metrics, 4)
        metrics.submitted(PRIORITY)  # still waiting for its answer
        entry = SLOTracker(registry).evaluate(
            SLObjective("avail", "availability", 0.99)
        )
        assert entry["total_events"] == 4
        assert entry["compliance"] == 1.0

    def test_latency_reads_every_priority_class(self):
        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry)
        serve(metrics, 3, seconds=0.010)
        metrics.submitted("batch")
        metrics.answered(10.0, "batch")
        metrics.resolved()
        entry = SLOTracker(registry).evaluate(
            SLObjective("lat", "latency", 0.5, threshold_ms=500.0)
        )
        assert entry["total_events"] == 4
        assert entry["compliance"] == pytest.approx(0.75)


class TestFrontDoorSheds:
    def test_full_and_stale_sheds_count_against_availability(self):
        """Sheds decided at the front door — a full pending queue and a
        deadline expired at submit — are bad events for availability,
        next to the two callers that were answered."""
        engine = PrecisEngine(paper_instance(), graph=movies_graph())
        service = PrecisService(engine, config=ServiceConfig(workers=1))

        async def go():
            frontdoor = AsyncFrontDoor(service, FrontDoorConfig(max_pending=1))
            gate = threading.Event()
            parked = GateDeadline(gate)
            try:
                running = asyncio.ensure_future(
                    frontdoor.submit("Allen", deadline=parked)
                )
                await entered(parked)
                queued = asyncio.ensure_future(frontdoor.submit("comedy"))
                await spin(lambda: frontdoor.pending() == 2, "queue full")
                with pytest.raises(QueueFull):
                    await frontdoor.submit("Drama")
                with pytest.raises(StaleRequest):
                    await frontdoor.submit(
                        "Drama", deadline=Deadline.after(-1)
                    )
                gate.set()
                await asyncio.gather(running, queued)
            finally:
                gate.set()
                await frontdoor.close()

        try:
            run(go())
        finally:
            service.close()
        entry = SLOTracker(service.metrics.registry).evaluate(
            SLObjective("avail", "availability", 0.99)
        )
        assert entry["total_events"] == 4
        assert entry["bad_events"] == 2
        assert entry["compliance"] == pytest.approx(0.5)
