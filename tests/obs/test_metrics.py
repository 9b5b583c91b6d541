"""Service-level metrics: instruments, registry, exporters, slow-query
log, and the engine integration (repro.obs.metrics)."""

import io
import json
import math
import re

import pytest

from repro.core import MaxTuplesPerRelation, PrecisEngine
from repro.datasets import movies_graph, paper_instance
from repro.obs import (
    Counter,
    EngineMetrics,
    Gauge,
    Histogram,
    MetricsRegistry,
    SlowQueryLog,
    prometheus_text,
    write_metrics,
)


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.add(-2.5)
        assert gauge.value == 7.5


class TestHistogram:
    def test_observations_land_in_buckets(self):
        hist = Histogram(bounds=[1.0, 10.0, 100.0])
        for value in (0.5, 5.0, 5.0, 50.0, 5000.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.sum == pytest.approx(5060.5)
        assert hist.buckets() == [
            (1.0, 1),
            (10.0, 3),
            (100.0, 4),
            (math.inf, 5),
        ]

    def test_percentiles_ordered_and_clamped(self):
        hist = Histogram()
        for i in range(1, 101):
            hist.observe(i / 1000.0)  # 1 ms … 100 ms
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["min"] == pytest.approx(0.001)
        assert summary["max"] == pytest.approx(0.100)
        assert (
            summary["min"]
            <= summary["p50"]
            <= summary["p95"]
            <= summary["p99"]
            <= summary["max"]
        )

    def test_empty_and_invalid_quantile(self):
        hist = Histogram()
        assert hist.percentile(99) == 0.0
        with pytest.raises(ValueError):
            hist.percentile(101)
        with pytest.raises(ValueError):
            Histogram(bounds=[])


class TestMetricsRegistry:
    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc()
        assert registry.counter("hits").value == 2

    def test_labels_split_children(self):
        registry = MetricsRegistry()
        registry.counter("requests", outcome="hit").inc(3)
        registry.counter("requests", outcome="miss").inc(1)
        snapshot = registry.snapshot()
        assert snapshot["counters"]['requests{outcome="hit"}'] == 3
        assert snapshot["counters"]['requests{outcome="miss"}'] == 1

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_snapshot_is_json_compatible(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.01)
        parsed = json.loads(json.dumps(registry.snapshot()))
        assert parsed["histograms"]["h"]["count"] == 1


#: one exposition-format sample line: name{labels} value — label values
#: may contain \\, \" and \n escape sequences but no raw specials
_LABEL_VALUE = r"\"(?:\\.|[^\"\\])*\""
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=" + _LABEL_VALUE +
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=" + _LABEL_VALUE + r")*\})?"
    r" \S+$"
)


def _assert_prometheus_parses(text: str) -> int:
    """Validate line-by-line; returns the number of sample lines."""
    samples = 0
    assert text.endswith("\n")
    for line in text.splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert _SAMPLE_RE.match(line), f"unparseable sample line: {line!r}"
        value = line.rsplit(" ", 1)[1]
        float("inf") if value == "+Inf" else float(value)
        samples += 1
    return samples


class TestPrometheusExport:
    def test_every_line_parses(self):
        registry = MetricsRegistry()
        registry.counter("precis_asks_total", "asks").inc(7)
        registry.gauge("precis_cache_state", "cache", layer="plans").set(3)
        registry.histogram("precis_ask_seconds", "latency").observe(0.004)
        text = prometheus_text(registry)
        assert _assert_prometheus_parses(text) > 30  # 28 buckets + extras
        assert "# TYPE precis_ask_seconds histogram" in text
        assert "# HELP precis_asks_total asks" in text
        assert "precis_asks_total 7" in text
        assert 'precis_cache_state{layer="plans"} 3' in text

    def test_histogram_series_shape(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=[0.001, 1.0])
        hist.observe(0.0005)
        hist.observe(0.5)
        hist.observe(2.0)
        text = prometheus_text(registry)
        assert 'h_bucket{le="0.001"} 1' in text
        assert 'h_bucket{le="1.0"} 2' in text
        assert 'h_bucket{le="+Inf"} 3' in text
        assert "h_count 3" in text


class TestPrometheusEdgeCases:
    def test_empty_registry_exposes_nothing(self):
        # "\n" would be a blank line — strict exposition parsers reject
        # documents that are not empty and not sample/comment lines
        assert prometheus_text(MetricsRegistry()) == ""

    def test_family_without_children_is_skipped(self):
        registry = MetricsRegistry()
        # a family can exist with no children yet (registered name, no
        # label set ever touched): it must not emit a dangling # TYPE
        registry._family("untouched", "histogram", "never observed",
                         lambda: Histogram())
        registry.counter("touched", "observed").inc()
        text = prometheus_text(registry)
        assert "untouched" not in text
        assert "touched 1" in text
        _assert_prometheus_parses(text)

    def test_tenant_labelled_series_round_trip(self):
        registry = MetricsRegistry()
        registry.histogram(
            "precis_service_tenant_seconds", "per-tenant latency",
            bounds=[0.01, 1.0], tenant="acme",
        ).observe(0.005)
        registry.histogram(
            "precis_service_tenant_seconds", "per-tenant latency",
            bounds=[0.01, 1.0], tenant="globex",
        ).observe(0.5)
        registry.counter(
            "precis_service_requests_total", "admitted", tenant="acme"
        ).inc(3)
        text = prometheus_text(registry)
        assert _assert_prometheus_parses(text) == 11  # 2x(3b+sum+cnt)+1
        assert (
            'precis_service_tenant_seconds_bucket{tenant="acme",le="0.01"}'
            " 1" in text
        )
        assert 'precis_service_tenant_seconds_count{tenant="globex"} 1' in (
            text
        )
        assert 'precis_service_requests_total{tenant="acme"} 3' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "c", "odd labels", tenant='acme "west"\\prod\nblue'
        ).inc()
        text = prometheus_text(registry)
        assert _assert_prometheus_parses(text) == 1
        assert '\\"west\\"' in text
        assert "\\\\prod" in text
        assert "\\nblue" in text
        assert "\nblue" not in text  # the raw newline must not survive


class TestHistogramExemplars:
    def test_observation_pins_exemplar_to_its_bucket(self):
        hist = Histogram(bounds=[0.01, 1.0])
        hist.observe(0.005, exemplar="aa" * 8)
        hist.observe(0.5)  # no exemplar: bucket stays empty
        hist.observe(50.0, exemplar="bb" * 8)
        assert hist.exemplars() == ["aa" * 8, None, "bb" * 8]
        assert hist.exemplar_for(0.001) == "aa" * 8
        assert hist.exemplar_for(0.2) is None
        assert hist.exemplar_for(999.0) == "bb" * 8

    def test_last_writer_wins_per_bucket(self):
        hist = Histogram(bounds=[1.0])
        hist.observe(0.1, exemplar="old")
        hist.observe(0.2, exemplar="new")
        hist.observe(0.3)  # exemplar-less: must not erase the link
        assert hist.exemplar_for(0.5) == "new"

    def test_snapshot_surfaces_exemplars_only_where_set(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=[0.01, 1.0]).observe(
            0.005, exemplar="cc" * 8
        )
        buckets = registry.snapshot()["histograms"]["h"]["buckets"]
        assert buckets[0] == {"le": 0.01, "count": 1, "exemplar": "cc" * 8}
        assert buckets[1] == {"le": 1.0, "count": 1}  # no exemplar key
        json.dumps(buckets)  # stays JSON-compatible

    def test_ambient_context_feeds_service_metrics(self):
        from repro.obs import ServiceMetrics
        from repro.obs.context import TraceContext, activate, deactivate

        registry = MetricsRegistry()
        metrics = ServiceMetrics(registry)
        context = TraceContext.mint("midnight", tenant="acme")
        token = activate(context)
        try:
            metrics.answered(0.002, "interactive", tenant="acme")
        finally:
            deactivate(token)
        metrics.answered(0.003, "batch")  # untraced: no exemplar

        def exemplar(name, value, **labels):
            return registry.histogram(name, **labels).exemplar_for(value)

        assert (
            exemplar("precis_service_seconds", 0.002, priority="interactive")
            == context.trace_id
        )
        assert exemplar("precis_service_seconds", 0.003, priority="batch") is None
        assert (
            exemplar("precis_service_tenant_seconds", 0.002, tenant="acme")
            == context.trace_id
        )


class TestSlowQueryLog:
    def test_threshold_filters(self):
        log = SlowQueryLog(threshold_ms=10.0, capacity=4)
        assert not log.record("fast", 0.005, {}, {})
        assert log.record("slow", 0.020, {"match": 0.001}, {"t": 1})
        [entry] = log.entries()
        assert entry.query == "slow"
        assert entry.stages == {"match": 0.001}

    def test_capacity_keeps_slowest(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=3)
        for i in range(1, 7):
            log.record(f"q{i}", i / 1000.0, {}, {})
        kept = [entry.query for entry in log.entries()]
        assert kept == ["q6", "q5", "q4"]  # slowest first
        assert not log.record("tiny", 0.0001, {}, {})

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)

    def test_rejects_nan_threshold(self):
        # a NaN threshold compares False with every duration, so it
        # would keep every ask
        with pytest.raises(ValueError, match="NaN"):
            SlowQueryLog(float("nan"))


@pytest.fixture(scope="module")
def warm_engine():
    """An engine that has served a warm 100-ask loop with metrics on."""
    engine = PrecisEngine(
        paper_instance(),
        graph=movies_graph(),
        cache=True,
        metrics=True,
        slow_query_ms=0.0,
    )
    for __ in range(100):
        engine.ask("Allen", cardinality=MaxTuplesPerRelation(3))
    return engine


class TestEngineIntegration:
    def test_hundred_ask_histogram_is_valid(self, warm_engine):
        snapshot = warm_engine.metrics_snapshot()
        hist = snapshot["histograms"]["precis_ask_seconds"]
        assert hist["count"] == 100
        assert hist["p50"] <= hist["p95"] <= hist["p99"]
        assert hist["min"] <= hist["p50"] and hist["p99"] <= hist["max"]
        assert hist["buckets"][-1]["le"] == math.inf
        assert hist["buckets"][-1]["count"] == 100
        assert snapshot["counters"]["precis_asks_total"] == 100

    def test_cache_series_and_stage_histograms(self, warm_engine):
        snapshot = warm_engine.metrics_snapshot()
        counters = snapshot["counters"]
        # first ask misses both layers, the other 99 hit the answer cache
        assert (
            counters['precis_cache_requests_total{layer="answer",outcome="hit"}']
            == 99
        )
        assert (
            counters['precis_cache_requests_total{layer="answer",outcome="miss"}']
            == 1
        )
        assert (
            counters['precis_cache_requests_total{layer="plan",outcome="miss"}']
            == 1
        )
        gauges = snapshot["gauges"]
        assert gauges['precis_cache_state{counter="hits",layer="answers"}'] == 99
        assert 'precis_stage_seconds{stage="cache"}' in snapshot["histograms"]

    def test_prometheus_export_parses(self, warm_engine):
        _assert_prometheus_parses(warm_engine.metrics_prometheus())

    def test_slow_query_log_in_snapshot(self, warm_engine):
        entries = warm_engine.metrics_snapshot()["slow_queries"]
        assert entries  # threshold 0 ms records everything (bounded)
        assert all(entry["query"] == "Allen" for entry in entries)
        durations = [entry["duration_s"] for entry in entries]
        assert durations == sorted(durations, reverse=True)

    def test_metrics_off_engine_has_no_service_layer(self):
        engine = PrecisEngine(paper_instance(), graph=movies_graph())
        assert engine.metrics is None
        assert engine.metrics_snapshot() == {}
        assert engine.metrics_prometheus() == ""
        answer = engine.ask("Allen", cardinality=MaxTuplesPerRelation(3))
        assert answer.stats is None  # no hidden tracer either

    def test_shared_registry_across_engines(self):
        registry = MetricsRegistry()
        for __ in range(2):
            engine = PrecisEngine(
                paper_instance(), graph=movies_graph(), metrics=registry
            )
            engine.ask("Allen", cardinality=MaxTuplesPerRelation(3))
        assert registry.counter("precis_asks_total").value == 2

    def test_slow_query_ms_alone_enables_metrics(self):
        engine = PrecisEngine(
            paper_instance(), graph=movies_graph(), slow_query_ms=0.0
        )
        assert engine.metrics is not None
        engine.ask("Allen")
        assert engine.metrics_snapshot()["slow_queries"]

    def test_index_build_is_measured(self):
        engine = PrecisEngine(
            paper_instance(), graph=movies_graph(), metrics=True
        )
        snapshot = engine.metrics_snapshot()
        build = snapshot["histograms"]['precis_stage_seconds{stage="build_index"}']
        assert build["count"] == 1
        assert snapshot["counters"]["precis_values_indexed_total"] > 0

    def test_ask_per_occurrence_feeds_metrics(self):
        engine = PrecisEngine(
            paper_instance(), graph=movies_graph(), metrics=True
        )
        answers = engine.ask_per_occurrence("Allen")
        assert len(answers) == 2  # actor + director homonym
        counters = engine.metrics_snapshot()["counters"]
        assert counters["precis_asks_total"] == 1


class TestWriteMetrics:
    def test_json_to_path_and_prometheus_to_stream(self, tmp_path, warm_engine):
        target = tmp_path / "metrics.json"
        write_metrics(warm_engine.metrics, str(target), format="json")
        document = json.loads(target.read_text())
        assert document["histograms"]["precis_ask_seconds"]["count"] == 100

        stream = io.StringIO()
        write_metrics(warm_engine.metrics, stream, format="prometheus")
        _assert_prometheus_parses(stream.getvalue())

    def test_unknown_format_raises(self, warm_engine):
        with pytest.raises(ValueError):
            write_metrics(warm_engine.metrics, io.StringIO(), format="xml")
