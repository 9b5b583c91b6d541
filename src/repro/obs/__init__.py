"""repro.obs — observability for the précis pipeline.

The measurement substrate every scaling/perf PR builds on: a
:class:`Tracer` with nestable stage spans (wall-clock start + monotonic
duration), typed integer counters, and pluggable sinks. The closed
:class:`Span` tree of one ask is its only record: the engine hangs the
root on :attr:`repro.core.answer.PrecisAnswer.stats`, and metrics,
``--stats`` and trace files all read that same tree.

The whole subsystem is opt-in: every instrumented call site defaults to
:data:`NULL_TRACER`, a shared no-op whose cost is one attribute check,
so untraced runs are byte-identical to the uninstrumented engine.

Quickstart::

    from repro import PrecisEngine
    from repro.obs import InMemorySink, Tracer

    sink = InMemorySink()
    engine = PrecisEngine(db, tracer=Tracer([sink]))
    answer = engine.ask('"Woody Allen"')
    answer.stats is sink.last                            # the root span
    answer.stats.total_counters()["tuples_emitted"]      # == total_tuples()
    answer.stats.find("match").duration_s                # index time

On top of per-query tracing sit the *service-level* layers:
:mod:`repro.obs.metrics` (a thread-safe :class:`MetricsRegistry` of
counters/gauges/log-bucketed histograms fed by the engine on every ask,
a :class:`SlowQueryLog`, and Prometheus/JSON exporters) and
:mod:`repro.obs.explain` (the structured :class:`Explanation`
provenance record attached to every answer — why each relation and
tuple batch is in the précis, and which constraint bounded it).

See ``docs/observability.md`` for the counter glossary and the span
layout of each pipeline stage.
"""

from .context import (
    RequestTrace,
    TraceBuffer,
    TraceContext,
    activate,
    chrome_trace_events,
    current_context,
    current_trace_id,
    deactivate,
    validate_chrome_trace,
)
from .explain import (
    BatchProvenance,
    CacheProvenance,
    Explanation,
    RelationProvenance,
    SchemaStop,
)
from .metrics import (
    Counter,
    EngineMetrics,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServiceMetrics,
    SlowQuery,
    SlowQueryLog,
    prometheus_text,
    write_metrics,
)
from .profile import StackSampler
from .sinks import InMemorySink, format_span_table
from .slo import SLObjective, SLOTracker
from .tracer import COUNTER_GLOSSARY, NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "InMemorySink",
    "format_span_table",
    "COUNTER_GLOSSARY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EngineMetrics",
    "ServiceMetrics",
    "SlowQuery",
    "SlowQueryLog",
    "prometheus_text",
    "write_metrics",
    "Explanation",
    "RelationProvenance",
    "SchemaStop",
    "BatchProvenance",
    "CacheProvenance",
    "TraceContext",
    "RequestTrace",
    "TraceBuffer",
    "current_context",
    "current_trace_id",
    "activate",
    "deactivate",
    "chrome_trace_events",
    "validate_chrome_trace",
    "SLObjective",
    "SLOTracker",
    "StackSampler",
]
