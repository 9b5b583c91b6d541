"""The benchmarks' load generator (``benchmarks/loadgen.py``): payload
shape, deadlines that bind, and shed counters that reach the export.

The harness lives outside the package, so it is loaded by path, the way
``tests/test_run_experiments.py`` loads ``run_experiments.py``.

Deadlines here trip after a fixed number of cooperative checks
(``AfterNChecks``), never after wall time: whether a deadline binds
must not depend on how fast the machine is. The real-time claim —
client-observed p99 stays within 10% of a 1 s deadline — is a speed
claim and lives in ``benchmarks/test_deadline_tail.py``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core import WeightThreshold
from repro.obs import MetricsRegistry, ServiceMetrics, TraceBuffer

from .service.faults import AfterNChecks
from .service.helpers import serve

_PATH = Path(__file__).parent.parent / "benchmarks" / "loadgen.py"


def _load():
    spec = importlib.util.spec_from_file_location("loadgen", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules["loadgen"] = module
    spec.loader.exec_module(module)
    return module


loadgen = _load()
LoadConfig = loadgen.LoadConfig
movies_workload = loadgen.movies_workload
percentile = loadgen.percentile
run_bench = loadgen.run_bench


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 99) is None

    def test_single_value(self):
        assert percentile([7.0], 50) == 7.0

    def test_interpolates(self):
        assert percentile([0.0, 10.0], 50) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0

    def test_p99_near_max(self):
        values = list(map(float, range(1, 101)))
        assert 99.0 <= percentile(values, 99) <= 100.0


class TestRunBenchPayload:
    @pytest.fixture(scope="class")
    def payload(self):
        engine, queries = movies_workload(n_movies=60)
        return run_bench(
            engine,
            queries,
            LoadConfig(clients=4, requests=3),
            workers=2,
            compare_coalescing=False,
        )["coalesced"]

    def test_accounting_adds_up(self, payload):
        assert payload["loop"] == "closed"
        assert payload["offered"] == 12
        assert sum(payload["outcomes"].values()) == payload["offered"]
        assert payload["outcomes"]["answered"] == 12
        assert payload["outcomes"]["failed"] == 0
        assert payload["failures"] == {}

    def test_latency_block_populated(self, payload):
        lat = payload["latency_ms"]
        assert lat["p50"] is not None
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]

    def test_throughput_positive(self, payload):
        assert payload["throughput_rps"] > 0

    def test_service_drained(self, payload):
        assert payload["inflight_after"] == 0
        assert payload["pending_after"] == 0

    def test_counters_carried(self, payload):
        requests = 'precis_service_requests_total{priority="interactive"}'
        assert payload["counters"][requests] == 12
        assert payload["slo"]["objectives"][0]["total_events"] == 12


class TestFailedPayload:
    def test_failures_name_what_each_failed_request_raised(self):
        engine, queries = movies_workload(n_movies=30)
        payload = run_bench(
            engine,
            queries,
            LoadConfig(clients=2, requests=3),
            workers=1,
            compare_coalescing=False,
            # the engine refuses the argument on the worker
            bogus=1,
        )["coalesced"]
        assert payload["outcomes"]["failed"] == payload["offered"] == 6
        [(cause, count)] = payload["failures"].items()
        assert cause.startswith("TypeError: ")
        assert "'bogus'" in cause
        assert count == 6


class TestTracedPayload:
    def test_payload_carries_slo_and_trace_stats(self):
        engine, queries = movies_workload(n_movies=30)
        traces = TraceBuffer(sample_rate=1.0)
        payload = run_bench(
            engine,
            queries,
            LoadConfig(clients=2, requests=3),
            workers=1,
            traces=traces,
        )
        # only the coalesced arm is traced, every one of its requests
        assert payload["coalesced"]["traces"]["kept"] == 6
        assert len(traces.traces()) == 6
        assert "traces" not in payload["uncoalesced"]
        assert payload["coalesced"]["slo"]["objectives"]


class TestDeadlineBoundsTail:
    """A deadline that expires inside the engine degrades the answer;
    it never turns into a shed or an error."""

    def test_everything_answered_degraded(self):
        engine, queries = movies_workload(n_movies=60)
        payload = run_bench(
            engine,
            queries,
            LoadConfig(clients=2, requests=4),
            workers=1,
            compare_coalescing=False,
            # trips at the first cooperative check, for every request
            deadline=AfterNChecks(0),
            degree=WeightThreshold(0.5),
        )["coalesced"]
        # the deadline binds on every request: all answered, all partial
        assert payload["outcomes"]["answered"] == 0
        assert payload["outcomes"]["degraded"] == payload["offered"] == 8
        assert payload["goodput_rps"] == 0.0

    def test_degraded_counter_in_prometheus_export(self):
        engine, __ = movies_workload(n_movies=60)
        registry = MetricsRegistry()
        answer = serve(
            engine,
            "drama",
            registry=registry,
            deadline=AfterNChecks(0),
            degree=WeightThreshold(0.5),
        )
        assert answer.degraded
        text = ServiceMetrics(registry).prometheus()
        assert 'precis_service_degraded_total{stage="' in text
        assert (
            'precis_service_answered_total{priority="interactive"} 1'
            in text
        )


class TestShedCountersExported:
    def test_overload_sheds_and_exports(self):
        engine, queries = movies_workload(n_movies=40)
        payload = run_bench(
            engine,
            queries,
            LoadConfig(clients=8, requests=5, duplicate_fraction=0.0),
            workers=1,
            max_pending=1,
            compare_coalescing=False,
        )["coalesced"]
        # one pending slot under 8 closed-loop clients must shed
        assert payload["outcomes"]["shed_full"] > 0
        shed = (
            'precis_service_shed_total{priority="interactive",reason="full"}'
        )
        assert payload["counters"][shed] == payload["outcomes"]["shed_full"]
        # and availability counts every one of them
        availability = payload["slo"]["objectives"][0]
        assert availability["bad_events"] == payload["outcomes"]["shed_full"]
