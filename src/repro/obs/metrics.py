"""Service-level metrics — the fleet view of the précis pipeline.

Where :mod:`repro.obs.tracer` answers "where did *this* query spend its
time", this module answers the production questions: what are the
latency percentiles across thousands of asks, how is the cache hit
ratio trending, which queries are the slow outliers. It provides:

* :class:`MetricsRegistry` — a process-lifetime, thread-safe registry
  of named :class:`Counter`, :class:`Gauge` and :class:`Histogram`
  instruments (with optional label sets, Prometheus-style);
* :class:`Histogram` — log-bucketed latency/size distribution with
  p50/p95/p99 summaries interpolated from the buckets;
* :class:`SlowQueryLog` — a bounded record of the N slowest asks seen,
  each with its per-stage breakdown;
* :class:`EngineMetrics` — the engine-facing façade that digests one
  closed ``ask`` span tree into the registry and the slow-query log;
* two exporters — :func:`prometheus_text` (text exposition format) and
  :meth:`MetricsRegistry.snapshot` (a JSON-compatible dict).

Everything is opt-in: an engine built without ``metrics=`` touches none
of this, so the untraced hot path stays byte-identical to PR 3.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from typing import Iterable, Mapping, Optional, TextIO, Union

from .context import current_trace_id as _current_trace_id
from .tracer import Span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SlowQueryLog",
    "SlowQuery",
    "EngineMetrics",
    "ServiceMetrics",
    "prometheus_text",
    "write_metrics",
]

#: label tuples are the canonical child key: sorted (name, value) pairs
LabelSet = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_suffix(labels: LabelSet) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing count (asks served, tuples emitted)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self):
        return f"Counter({self._value})"


class Gauge:
    """A value that can go up and down (cache size, current epoch)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self):
        return f"Gauge({self._value})"


def _default_bounds() -> tuple[float, ...]:
    """Log-spaced latency buckets: 1 µs … ~137 s, factor 2 per bucket.

    28 buckets cover nine decades, so one histogram shape serves both
    sub-millisecond index probes and multi-second cold scans.
    """
    bounds = []
    value = 1e-6
    for __ in range(28):
        bounds.append(value)
        value *= 2.0
    return tuple(bounds)


class Histogram:
    """Log-bucketed distribution with percentile summaries.

    Observations land in the first bucket whose upper bound is >= the
    value (one +Inf overflow bucket catches the rest). Percentiles are
    interpolated linearly inside the owning bucket — exact enough for
    dashboards while storing only ``len(bounds)+1`` integers regardless
    of traffic volume.

    An observation may carry an *exemplar* — a trace id
    (:mod:`repro.obs.context`) — in which case the owning bucket
    remembers it (last writer wins). That is the aggregate → trace
    link: a bad p99 bucket names a concrete request whose full span
    tree is one :meth:`~repro.obs.context.TraceBuffer.find` away.
    """

    __slots__ = (
        "bounds",
        "_counts",
        "_exemplars",
        "_count",
        "_sum",
        "_min",
        "_max",
        "_lock",
    )

    def __init__(self, bounds: Optional[Iterable[float]] = None):
        self.bounds: tuple[float, ...] = (
            tuple(sorted(bounds)) if bounds is not None else _default_bounds()
        )
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.bounds) + 1)  # +1: overflow (+Inf)
        self._exemplars: list[Optional[str]] = [None] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            if exemplar is not None:
                self._exemplars[index] = exemplar
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    # ------------------------------------------------------------- queries

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def buckets(self) -> list[tuple[float, int]]:
        """Cumulative (upper_bound, count) pairs, Prometheus-style;
        the final bound is ``float('inf')``."""
        out = []
        cumulative = 0
        for bound, count in zip(self.bounds, self._counts):
            cumulative += count
            out.append((bound, cumulative))
        out.append((float("inf"), cumulative + self._counts[-1]))
        return out

    def exemplars(self) -> list[Optional[str]]:
        """Per-bucket exemplar trace ids, aligned with :meth:`buckets`
        (last observation carrying one per bucket; None elsewhere)."""
        with self._lock:
            return list(self._exemplars)

    def exemplar_for(self, value: float) -> Optional[str]:
        """The exemplar of the bucket *value* would land in."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            return self._exemplars[index]

    def percentile(self, q: float) -> float:
        """Approximate q-th percentile (q in [0, 100]) by linear
        interpolation inside the owning bucket; 0.0 when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q / 100.0 * self._count
            cumulative = 0
            for index, count in enumerate(self._counts):
                if count == 0:
                    continue
                if cumulative + count >= rank:
                    lower = self.bounds[index - 1] if index > 0 else 0.0
                    upper = (
                        self.bounds[index]
                        if index < len(self.bounds)
                        else (self._max if self._max is not None else lower)
                    )
                    upper = max(upper, lower)
                    fraction = (rank - cumulative) / count
                    value = lower + (upper - lower) * fraction
                    # the empirical extremes are tighter than bucket edges
                    if self._min is not None:
                        value = max(value, self._min)
                    if self._max is not None:
                        value = min(value, self._max)
                    return value
                cumulative += count
            return self._max if self._max is not None else 0.0

    def summary(self) -> dict:
        """count/sum/min/max plus the p50/p95/p99 dashboard trio."""
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self):
        return f"Histogram(count={self._count}, sum={self._sum:.6g})"


class _Family:
    """One named metric and its labelled children."""

    __slots__ = ("name", "kind", "help", "children", "maker")

    def __init__(self, name: str, kind: str, help_text: str, maker):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: dict[LabelSet, object] = {}
        self.maker = maker

    def child(self, labels: LabelSet):
        child = self.children.get(labels)
        if child is None:
            child = self.maker()
            self.children[labels] = child
        return child


class MetricsRegistry:
    """Process-lifetime, thread-safe home of every service metric.

    >>> registry = MetricsRegistry()
    >>> registry.counter("precis_asks_total").inc()
    >>> registry.histogram("precis_ask_seconds").observe(0.004)
    >>> sorted(registry.snapshot()["counters"])
    ['precis_asks_total']
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # ------------------------------------------------------------- access

    def _family(self, name: str, kind: str, help_text: str, maker) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, maker)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind}"
                )
            return family

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        family = self._family(name, "counter", help, Counter)
        with self._lock:
            return family.child(_label_key(labels))

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        family = self._family(name, "gauge", help, Gauge)
        with self._lock:
            return family.child(_label_key(labels))

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: Optional[Iterable[float]] = None,
        **labels: str,
    ) -> Histogram:
        maker = (lambda: Histogram(bounds)) if bounds is not None else Histogram
        family = self._family(name, "histogram", help, maker)
        with self._lock:
            return family.child(_label_key(labels))

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------- export

    def snapshot(self) -> dict:
        """JSON-compatible dump: counters/gauges by labelled name,
        histograms with bucket lists and percentile summaries."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for family in self.families():
            for labels, metric in sorted(family.children.items()):
                full = family.name + _label_suffix(labels)
                if family.kind == "counter":
                    counters[full] = metric.value
                elif family.kind == "gauge":
                    gauges[full] = metric.value
                else:
                    entry = metric.summary()
                    exemplars = metric.exemplars()
                    entry["buckets"] = [
                        {"le": bound, "count": count}
                        if exemplar is None
                        else {
                            "le": bound,
                            "count": count,
                            "exemplar": exemplar,
                        }
                        for (bound, count), exemplar in zip(
                            metric.buckets(), exemplars
                        )
                    ]
                    histograms[full] = entry
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def __repr__(self):
        return f"MetricsRegistry({len(self._families)} families)"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4):

    ``# HELP``/``# TYPE`` headers, cumulative ``_bucket{le=...}`` series
    plus ``_sum``/``_count`` per histogram, one sample per line.
    """

    def fmt(value: float) -> str:
        if value == float("inf"):
            return "+Inf"
        return repr(value) if isinstance(value, float) else str(value)

    lines: list[str] = []
    for family in registry.families():
        if not family.children:
            # a family registered but never observed would emit a bare
            # # TYPE header with no samples — skip it entirely so the
            # exposition carries no dangling series
            continue
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, metric in sorted(family.children.items()):
            if family.kind in ("counter", "gauge"):
                lines.append(
                    f"{family.name}{_label_suffix(labels)} {fmt(metric.value)}"
                )
                continue
            for bound, count in metric.buckets():
                bucket_labels = labels + (("le", fmt(bound)),)
                lines.append(
                    f"{family.name}_bucket{_label_suffix(bucket_labels)} "
                    f"{count}"
                )
            suffix = _label_suffix(labels)
            lines.append(f"{family.name}_sum{suffix} {fmt(metric.sum)}")
            lines.append(f"{family.name}_count{suffix} {metric.count}")
    if not lines:
        # an empty registry exposes *nothing*: "\n" would be a blank
        # line, which strict exposition parsers reject
        return ""
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- slow queries


class SlowQuery:
    """One slow-query log entry: the ask, its total time, its stages.

    When the ask ran inside a traced request (:mod:`repro.obs.context`)
    the entry carries its ``trace_id`` — a slow-query line is then one
    grep away from the full trace in the buffer or a JSONL export.
    """

    __slots__ = ("query", "duration_s", "stages", "counters", "trace_id")

    def __init__(
        self,
        query: str,
        duration_s: float,
        stages: Mapping[str, float],
        counters: Mapping[str, int],
        trace_id: Optional[str] = None,
    ):
        self.query = query
        self.duration_s = duration_s
        self.stages = dict(stages)
        self.counters = dict(counters)
        self.trace_id = trace_id

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "duration_s": self.duration_s,
            "stages": dict(self.stages),
            "counters": dict(self.counters),
            "trace_id": self.trace_id,
        }

    def __repr__(self):
        trace = f", trace={self.trace_id}" if self.trace_id else ""
        return (
            f"SlowQuery({self.query!r}, "
            f"{self.duration_s * 1e3:.3f}ms{trace})"
        )


class SlowQueryLog:
    """Bounded, thread-safe record of the slowest asks seen.

    Keeps at most *capacity* entries, always the slowest so far; asks
    faster than *threshold_ms* are never recorded. ``threshold_ms=0``
    records everything (until faster entries are displaced).
    """

    def __init__(self, threshold_ms: float = 100.0, capacity: int = 32):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.threshold_ms = float(threshold_ms)
        if math.isnan(self.threshold_ms):
            # every comparison with NaN is False: it would keep every ask
            raise ValueError("threshold_ms must be a number, not NaN")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: list[SlowQuery] = []  # kept sorted slowest-first

    def record(
        self,
        query: str,
        duration_s: float,
        stages: Mapping[str, float],
        counters: Mapping[str, int],
        trace_id: Optional[str] = None,
    ) -> bool:
        """Record one ask; returns True iff the entry was kept."""
        if duration_s * 1e3 < self.threshold_ms:
            return False
        with self._lock:
            if (
                len(self._entries) >= self.capacity
                and duration_s <= self._entries[-1].duration_s
            ):
                return False
            entry = SlowQuery(query, duration_s, stages, counters, trace_id)
            self._entries.append(entry)
            self._entries.sort(key=lambda e: -e.duration_s)
            del self._entries[self.capacity :]
            return True

    def entries(self) -> list[SlowQuery]:
        """Snapshot of the kept entries, slowest first."""
        with self._lock:
            return list(self._entries)

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return (
            f"SlowQueryLog({len(self._entries)}/{self.capacity} entries, "
            f">= {self.threshold_ms:g} ms)"
        )


# ------------------------------------------------------------- engine glue

#: span-tree counters promoted to service counters on every ask
_PROMOTED_COUNTERS = (
    "tokens_matched",
    "relations_expanded",
    "seed_tuples",
    "joins_executed",
    "joins_skipped",
    "tuples_emitted",
    "paths_pushed",
    "paths_popped",
    "paths_admitted",
    "paths_pruned",
    "paragraphs_emitted",
)

#: stage spans whose durations get their own labelled histogram series
_STAGE_NAMES = (
    "match",
    "schema",
    "schema_generator",
    "database_generator",
    "translate",
    "cache",
    "build_index",
)


class EngineMetrics:
    """The engine-side façade: digests closed span trees into a
    :class:`MetricsRegistry` and a :class:`SlowQueryLog`.

    One instance may be shared by several engines (one service process,
    many shards) — everything underneath is thread-safe.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        slow_query_ms: Optional[float] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slow_queries: Optional[SlowQueryLog] = (
            SlowQueryLog(slow_query_ms)
            if slow_query_ms is not None
            else None
        )

    # --------------------------------------------------------- recording

    def observe_ask(
        self,
        root: Span,
        query_text: str,
        trace_id: Optional[str] = None,
    ) -> None:
        """Digest one closed ``ask`` (or ``ask_per_occurrence``) root.

        *trace_id* (defaulting to the active request context's, so
        engine call sites need no plumbing) lands as the exemplar on
        every histogram bucket this ask touches and on its slow-query
        entry."""
        if trace_id is None:
            trace_id = _current_trace_id()
        registry = self.registry
        registry.counter(
            "precis_asks_total", "précis queries answered"
        ).inc()
        registry.histogram(
            "precis_ask_seconds", "end-to-end ask latency"
        ).observe(root.duration_s, exemplar=trace_id)

        stages: dict[str, float] = {}
        for span, __ in root.walk():
            if span is root:
                continue
            if span.name in _STAGE_NAMES:
                stages[span.name] = stages.get(span.name, 0.0) + span.duration_s
                registry.histogram(
                    "precis_stage_seconds",
                    "per-stage latency",
                    stage=span.name,
                ).observe(span.duration_s, exemplar=trace_id)

        totals = root.total_counters()
        for name in _PROMOTED_COUNTERS:
            value = totals.get(name, 0)
            if value:
                registry.counter(
                    f"precis_{name}_total", f"total {name} across asks"
                ).inc(value)
        for layer, hit_key, miss_key in (
            ("plan", "cache_hit", "cache_miss"),
            ("answer", "answer_cache_hit", "answer_cache_miss"),
        ):
            for outcome, key in (("hit", hit_key), ("miss", miss_key)):
                value = totals.get(key, 0)
                if value:
                    registry.counter(
                        "precis_cache_requests_total",
                        "cache lookups by layer and outcome",
                        layer=layer,
                        outcome=outcome,
                    ).inc(value)
        invalidations = totals.get("cache_invalidation", 0)
        if invalidations:
            registry.counter(
                "precis_cache_invalidations_total",
                "cache entries discarded for a stale epoch token",
            ).inc(invalidations)

        if self.slow_queries is not None:
            self.slow_queries.record(
                query_text, root.duration_s, stages, totals,
                trace_id=trace_id,
            )

    def observe_index_build(self, root: Span) -> None:
        """Digest one closed ``build_index`` root span."""
        self.registry.histogram(
            "precis_stage_seconds", "per-stage latency", stage="build_index"
        ).observe(root.duration_s)
        totals = root.total_counters()
        for name in ("attributes_indexed", "values_indexed"):
            value = totals.get(name, 0)
            if value:
                self.registry.counter(
                    f"precis_{name}_total", f"total {name} across builds"
                ).inc(value)

    def observe_cache_stats(self, stats: Mapping[str, Mapping[str, int]]) -> None:
        """Mirror the engine's per-layer cache counters as gauges
        (cumulative engine-lifetime values, so ``set`` not ``inc``)."""
        for layer, counters in stats.items():
            for key, value in counters.items():
                self.registry.gauge(
                    "precis_cache_state",
                    "engine cache counters by layer",
                    layer=layer,
                    counter=key,
                ).set(value)

    # --------------------------------------------------------- export

    def snapshot(self) -> dict:
        """JSON-compatible snapshot: the registry plus the slow-query
        log (the ``--metrics-out`` payload)."""
        out = self.registry.snapshot()
        out["slow_queries"] = (
            [entry.to_dict() for entry in self.slow_queries.entries()]
            if self.slow_queries is not None
            else []
        )
        return out

    def prometheus(self) -> str:
        return prometheus_text(self.registry)

    def __repr__(self):
        return f"EngineMetrics({self.registry!r}, slow={self.slow_queries!r})"


class ServiceMetrics:
    """The serving stack's one metrics façade (:mod:`repro.service`)
    over a :class:`MetricsRegistry`.

    The async front door writes every series: its admission decisions,
    and the executions, failures and retries of the worker pool it
    dispatches to, which records nothing itself. One Prometheus scrape
    (or one ``--metrics-out`` file) carries admission, execution and —
    when the engines share the registry — the pipeline stages too.

    Accounting granularity, deliberately mixed:

    * **per waiter** — ``requests``, ``coalesced``, ``admission_hits``,
      ``answered``, ``degraded``, the latency histogram and the
      ``inflight`` gauge: every caller that submitted, including
      coalesced followers, shows up once, so availability and goodput
      are measured in user-visible answers;
    * **per flight** (one logical engine execution) — ``executions``,
      ``failures``, ``retries`` and the ``pending`` gauge: a failed
      flight with ten coalesced waiters failed *once* upstream.

    Sheds carry both, by reason: ``closed``, ``full``, ``stale`` at
    submit and ``stale_follower`` refuse one waiter; ``preempted``,
    ``stale`` at dispatch and ``tenant_quota`` refuse one flight, and
    every waiter coalesced onto it sees the same error.

    Every request is an execution's leader, a coalesced follower, an
    admission hit or shed at submit, so ``requests`` equals
    ``executions + coalesced + admission_hits + sheds`` — less the
    ``stale_follower`` sheds, which refuse a follower already counted.

    The optional *tenant* on the recorders adds a tenant-labelled
    series NEXT TO the fleet series (never instead of it).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        #: waiters submitted but not yet resolved
        self.inflight = self.registry.gauge(
            "precis_service_inflight",
            "requests submitted but not yet resolved",
        )
        #: flights admitted but not yet resolved (pending or executing)
        self.pending = self.registry.gauge(
            "precis_service_pending",
            "flights admitted but not yet resolved",
        )

    # --------------------------------------------------------- per waiter

    def submitted(self, priority: str, tenant: Optional[str] = None) -> None:
        """One caller entered the front door (sheds included)."""
        self.registry.counter(
            "precis_service_requests_total",
            "requests submitted",
            priority=priority,
        ).inc()
        if tenant is not None:
            self.registry.counter(
                "precis_service_tenant_requests_total",
                "requests submitted per tenant",
                tenant=tenant,
            ).inc()
        self.inflight.add(1)

    def resolved(self) -> None:
        """One caller got its answer or its error."""
        self.inflight.add(-1)

    def coalesced(self, priority: str) -> None:
        """A follower merged into an identical in-flight execution."""
        self.registry.counter(
            "precis_service_coalesced_total",
            "requests coalesced into an in-flight identical ask",
            priority=priority,
        ).inc()

    def admission_hit(self, priority: str) -> None:
        """A request answered from the engine's answer cache at
        admission, without a flight or a worker."""
        self.registry.counter(
            "precis_service_admission_hits_total",
            "requests answered from the answer cache at admission",
            priority=priority,
        ).inc()

    def answered(
        self,
        seconds: float,
        priority: str,
        degraded_stage: Optional[str] = None,
        tenant: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        """One caller answered, submit to resolution in *seconds*
        (*degraded_stage* names the stage a partial answer stopped in).
        The request's trace id (explicit or from the active context)
        lands as the exemplar on the bucket this observation fills."""
        if trace_id is None:
            trace_id = _current_trace_id()
        self.registry.counter(
            "precis_service_answered_total",
            "requests answered, partial answers included",
            priority=priority,
        ).inc()
        self.registry.histogram(
            "precis_service_seconds",
            "request latency, submit to answer",
            priority=priority,
        ).observe(seconds, exemplar=trace_id)
        if tenant is not None:
            self.registry.histogram(
                "precis_service_tenant_seconds",
                "request latency per tenant",
                tenant=tenant,
            ).observe(seconds, exemplar=trace_id)
        if degraded_stage is not None:
            self.registry.counter(
                "precis_service_degraded_total",
                "answers served partial under an expired deadline",
                stage=degraded_stage,
            ).inc()
            if tenant is not None:
                self.registry.counter(
                    "precis_service_tenant_degraded_total",
                    "partial answers per tenant",
                    tenant=tenant,
                ).inc()

    def shed(
        self, reason: str, priority: str, tenant: Optional[str] = None
    ) -> None:
        """A waiter or a flight refused without an answer (see the
        class docstring for which reasons count which)."""
        self.registry.counter(
            "precis_service_shed_total",
            "requests shed without an answer",
            reason=reason,
            priority=priority,
        ).inc()
        if tenant is not None:
            self.registry.counter(
                "precis_service_tenant_shed_total",
                "requests shed without an answer, per tenant",
                tenant=tenant,
                reason=reason,
            ).inc()

    # --------------------------------------------------------- per flight

    def executed(self) -> None:
        """One flight handed to the worker pool."""
        self.registry.counter(
            "precis_service_executions_total",
            "engine executions dispatched",
        ).inc()

    def failed(self, kind: str) -> None:
        self.registry.counter(
            "precis_service_failures_total",
            "executions that raised instead of answering",
            kind=kind,
        ).inc()

    def retried(self, count: int) -> None:
        """*count* transient storage failures of one execution were
        retried."""
        self.registry.counter(
            "precis_service_retries_total",
            "transient storage failures retried",
        ).inc(count)

    def retries_exhausted(self) -> None:
        self.registry.counter(
            "precis_service_retry_exhausted_total",
            "executions failed after the retry budget ran out",
        ).inc()

    # --------------------------------------------------------- export

    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def prometheus(self) -> str:
        return prometheus_text(self.registry)

    def __repr__(self):
        return f"ServiceMetrics({self.registry!r})"


def write_metrics(
    metrics: EngineMetrics,
    target: Union[str, TextIO],
    format: str = "json",
) -> None:
    """Write one exporter payload to a path or open stream."""
    if format == "json":
        payload = json.dumps(metrics.snapshot(), indent=2, sort_keys=True)
    elif format == "prometheus":
        payload = metrics.prometheus()
    else:
        raise ValueError(f"unknown metrics format {format!r}")
    if hasattr(target, "write"):
        target.write(payload + ("" if payload.endswith("\n") else "\n"))
    else:
        with open(target, "w", encoding="utf-8") as stream:
            stream.write(payload + ("" if payload.endswith("\n") else "\n"))
