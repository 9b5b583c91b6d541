"""Request-scoped trace context and the sampled trace buffer.

This is the correlation layer between the two observability views that
existed before it: per-stage :class:`~repro.obs.tracer.Span` trees (the
engine's view of one ask) and fleet-wide
:class:`~repro.obs.metrics.MetricsRegistry` aggregates (the service's
view of all of them). It answers the production question neither can
alone: *which request* put that observation in that p99 bucket, and
*why was it slow*.

* :class:`TraceContext` — minted by :meth:`repro.service.AsyncFrontDoor.
  submit` per request (trace_id, tenant, priority, query, deadline) and
  propagated across the admission-queue boundary into the worker
  thread. Inside the worker it is *activated* into a
  :mod:`contextvars` variable so any code downstream — the engine, the
  metrics façade, the slow-query log — can read
  :func:`current_trace_id` without an API change at every call site.
* :class:`RequestTrace` — one completed (or shed) request: its context,
  outcome, queue wait, retry count, and the full span tree from
  submit → queue → retry attempts → engine stages → storage. The front
  door builds every one, in one method, once the request has ended; a
  worker only opens the spans of the execution it runs.
* :class:`TraceBuffer` — a bounded ring of kept traces with *head
  sampling plus always-keep triggers*: normal requests are admitted at
  ``sample_rate`` (deterministically, from the trace id), while
  degraded / shed / retried / failed / slow requests are **always**
  kept. Under load the buffer is therefore tail-biased: the traces you
  have are the ones you need.
* Exporters — JSON-lines (:meth:`TraceBuffer.export_jsonl`, the durable
  capture format) and Chrome trace-event JSON
  (:func:`chrome_trace_events`, loadable in ``chrome://tracing`` /
  Perfetto), plus :func:`validate_chrome_trace`, the structural checker
  CI runs against exported files.

Everything here is dependency-free within the package (it imports only
:mod:`repro.obs.tracer`), so the service, the engine and the CLI can
all use it without cycles.
"""

from __future__ import annotations

import contextvars
import json
import secrets
import threading
import time
from collections import deque
from typing import Iterable, Optional, TextIO, Union

from .tracer import Span

__all__ = [
    "TraceContext",
    "RequestTrace",
    "TraceBuffer",
    "current_context",
    "current_trace_id",
    "activate",
    "deactivate",
    "synthetic_span",
    "load_jsonl",
    "chrome_trace_events",
    "validate_chrome_trace",
]

#: the active request's context in this thread of execution (None when
#: serving untraced traffic — i.e. no TraceBuffer configured)
_CURRENT: contextvars.ContextVar[Optional["TraceContext"]] = (
    contextvars.ContextVar("precis_trace_context", default=None)
)


def current_context() -> Optional["TraceContext"]:
    """The request context active in this thread, or None."""
    return _CURRENT.get()


def current_trace_id() -> Optional[str]:
    """The active request's trace id, or None outside a traced request."""
    ctx = _CURRENT.get()
    return ctx.trace_id if ctx is not None else None


def activate(context: "TraceContext") -> contextvars.Token:
    """Install *context* as the thread's active request; returns the
    token for :func:`deactivate`. Workers call this after dequeue so
    everything the request touches downstream sees its trace id."""
    return _CURRENT.set(context)


def deactivate(token: contextvars.Token) -> None:
    _CURRENT.reset(token)


class TraceContext:
    """Identity and admission-time facts of one traced request.

    Minted in :meth:`~repro.service.AsyncFrontDoor.submit` (on the
    front door's loop), carried on the queued request object, and
    activated in the worker thread — the one object that crosses the
    queue boundary and ties both sides of the trace together.
    """

    __slots__ = (
        "trace_id",
        "tenant",
        "priority",
        "query",
        "submitted_wall",
        "submitted_mono",
        "deadline_s",
    )

    def __init__(
        self,
        trace_id: str,
        query: str,
        tenant: Optional[str] = None,
        priority: str = "interactive",
        submitted_wall: Optional[float] = None,
        submitted_mono: Optional[float] = None,
        deadline_s: Optional[float] = None,
    ):
        self.trace_id = trace_id
        self.query = query
        self.tenant = tenant
        self.priority = priority
        self.submitted_wall = (
            submitted_wall if submitted_wall is not None else time.time()
        )
        self.submitted_mono = (
            submitted_mono
            if submitted_mono is not None
            else time.perf_counter()
        )
        #: seconds of deadline budget at admission (None = no deadline)
        self.deadline_s = deadline_s

    @classmethod
    def mint(
        cls,
        query: str,
        tenant: Optional[str] = None,
        priority: str = "interactive",
        deadline_s: Optional[float] = None,
    ) -> "TraceContext":
        """A fresh context with a random 64-bit hex trace id."""
        return cls(
            trace_id=secrets.token_hex(8),
            query=query,
            tenant=tenant,
            priority=priority,
            deadline_s=deadline_s,
        )

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "query": self.query,
            "tenant": self.tenant,
            "priority": self.priority,
            "submitted_wall": self.submitted_wall,
            "deadline_s": self.deadline_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceContext":
        return cls(
            trace_id=data["trace_id"],
            query=data.get("query", ""),
            tenant=data.get("tenant"),
            priority=data.get("priority", "interactive"),
            submitted_wall=data.get("submitted_wall"),
            deadline_s=data.get("deadline_s"),
        )

    def __repr__(self):
        tenant = f", tenant={self.tenant!r}" if self.tenant else ""
        return f"TraceContext({self.trace_id}{tenant}, {self.priority})"


def synthetic_span(
    name: str,
    wall_start: float,
    duration_s: float,
    mono_start: float = 0.0,
    counters: Optional[dict] = None,
) -> Span:
    """A closed span with explicit times — for regions the tracer never
    saw live (the queue wait, a shed decision made in the caller)."""
    span = Span(name)
    span.wall_start = wall_start
    span._mono_start = mono_start
    span._mono_end = mono_start + max(duration_s, 0.0)
    if counters:
        span.counters.update(counters)
    return span


# ------------------------------------------------------------- request traces


class RequestTrace:
    """One request's complete story: context, outcome, span tree."""

    __slots__ = (
        "context",
        "root",
        "outcome",
        "duration_s",
        "queue_wait_s",
        "retries",
        "degraded_stage",
        "error",
        "worker",
        "coalesced_into",
    )

    def __init__(
        self,
        context: TraceContext,
        root: Optional[Span],
        outcome: str,
        duration_s: float = 0.0,
        queue_wait_s: float = 0.0,
        retries: int = 0,
        degraded_stage: Optional[str] = None,
        error: Optional[str] = None,
        worker: Optional[str] = None,
        coalesced_into: Optional[str] = None,
    ):
        self.context = context
        self.root = root
        self.outcome = outcome
        self.duration_s = duration_s
        self.queue_wait_s = queue_wait_s
        self.retries = retries
        self.degraded_stage = degraded_stage
        self.error = error
        self.worker = worker
        #: trace id of the leader execution this request was coalesced
        #: into (async front door); None for uncoalesced requests
        self.coalesced_into = coalesced_into

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    def triggered(self, slow_s: Optional[float] = None) -> bool:
        """True when an always-keep trigger fired: any outcome other
        than ``answered`` (the serving layer's vocabulary,
        :data:`repro.service.errors.OUTCOMES`), a retried request, or
        (when *slow_s* is set) a slow one."""
        if self.outcome != "answered":
            return True
        if self.retries > 0:
            return True
        if slow_s is not None and self.duration_s >= slow_s:
            return True
        return False

    def stage_names(self) -> list[str]:
        """Depth-first span names — the shape of the trace tree."""
        if self.root is None:
            return []
        return [span.name for span, __ in self.root.walk()]

    def to_dict(self) -> dict:
        out = self.context.to_dict()
        out.update(
            {
                "outcome": self.outcome,
                "duration_s": self.duration_s,
                "queue_wait_s": self.queue_wait_s,
                "retries": self.retries,
                "degraded_stage": self.degraded_stage,
                "error": self.error,
                "worker": self.worker,
                "coalesced_into": self.coalesced_into,
                "root": (
                    self.root.to_dict() if self.root is not None else None
                ),
            }
        )
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RequestTrace":
        root = data.get("root")
        return cls(
            context=TraceContext.from_dict(data),
            root=Span.from_dict(root) if root is not None else None,
            outcome=data.get("outcome", "answered"),
            duration_s=float(data.get("duration_s", 0.0)),
            queue_wait_s=float(data.get("queue_wait_s", 0.0)),
            retries=int(data.get("retries", 0)),
            degraded_stage=data.get("degraded_stage"),
            error=data.get("error"),
            worker=data.get("worker"),
            coalesced_into=data.get("coalesced_into"),
        )

    def __repr__(self):
        return (
            f"RequestTrace({self.trace_id}, {self.outcome}, "
            f"{self.duration_s * 1e3:.3f}ms, retries={self.retries})"
        )


class TraceBuffer:
    """Bounded, thread-safe ring of kept request traces.

    Capture is always on when a buffer is configured; *admission* is
    what is sampled. Normal (answered, un-retried, fast) traces are
    head-sampled at ``sample_rate``, deterministically from the trace
    id, so a given request is either in or out regardless of buffer
    state. Triggered traces — degraded, shed, failed, retried, or
    slower than ``slow_ms`` — bypass sampling entirely and are always
    kept (tail-biased capture). When the ring is full the oldest trace
    falls out.
    """

    #: sampling resolution: the trace-id hash is reduced to this space
    _SAMPLE_SPACE = 1_000_000

    def __init__(
        self,
        capacity: int = 256,
        sample_rate: float = 0.1,
        slow_ms: Optional[float] = None,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.capacity = capacity
        self.sample_rate = sample_rate
        self.slow_ms = slow_ms
        self._lock = threading.Lock()
        self._traces: deque[RequestTrace] = deque(maxlen=capacity)
        self._offered = 0
        self._kept_sampled = 0
        self._kept_triggered = 0

    # --------------------------------------------------------- admission

    def sampled(self, trace_id: str) -> bool:
        """The head-sampling decision for *trace_id* — deterministic, so
        retries of the same request agree with the original."""
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        bucket = int(trace_id, 16) % self._SAMPLE_SPACE
        return bucket < self.sample_rate * self._SAMPLE_SPACE

    def offer(self, trace: RequestTrace) -> bool:
        """Admit *trace* if triggered or head-sampled; returns kept?"""
        slow_s = self.slow_ms / 1e3 if self.slow_ms is not None else None
        triggered = trace.triggered(slow_s)
        keep = triggered or self.sampled(trace.trace_id)
        with self._lock:
            self._offered += 1
            if keep:
                if triggered:
                    self._kept_triggered += 1
                else:
                    self._kept_sampled += 1
                self._traces.append(trace)
        return keep

    # --------------------------------------------------------- queries

    def traces(self) -> list[RequestTrace]:
        """Snapshot of kept traces, oldest first."""
        with self._lock:
            return list(self._traces)

    def find(self, trace_id: str) -> Optional[RequestTrace]:
        with self._lock:
            for trace in self._traces:
                if trace.trace_id == trace_id:
                    return trace
        return None

    def stats(self) -> dict:
        with self._lock:
            return {
                "offered": self._offered,
                "kept": len(self._traces),
                "kept_sampled": self._kept_sampled,
                "kept_triggered": self._kept_triggered,
                "capacity": self.capacity,
                "sample_rate": self.sample_rate,
            }

    def __len__(self):
        return len(self._traces)

    # --------------------------------------------------------- export

    def export_jsonl(self, target: Union[str, TextIO]) -> int:
        """One JSON document per line per kept trace; returns the count."""
        traces = self.traces()
        if hasattr(target, "write"):
            for trace in traces:
                target.write(json.dumps(trace.to_dict(), sort_keys=True))
                target.write("\n")
        else:
            with open(target, "w", encoding="utf-8") as stream:
                for trace in traces:
                    stream.write(json.dumps(trace.to_dict(), sort_keys=True))
                    stream.write("\n")
        return len(traces)

    def to_chrome(self) -> dict:
        return chrome_trace_events(self.traces())

    def __repr__(self):
        return (
            f"TraceBuffer({len(self._traces)}/{self.capacity} kept, "
            f"rate={self.sample_rate:g})"
        )


def load_jsonl(source: Union[str, TextIO]) -> list[RequestTrace]:
    """Read traces back from :meth:`TraceBuffer.export_jsonl` output."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as stream:
            lines = stream.read().splitlines()
    return [
        RequestTrace.from_dict(json.loads(line))
        for line in lines
        if line.strip()
    ]


# ------------------------------------------------------- chrome trace export


def _emit_span_events(
    span: Span,
    begin_us: float,
    end_us: float,
    pid: int,
    tid: int,
    events: list[dict],
) -> None:
    """B/E pairs for *span* clamped into [begin_us, end_us], children
    nested recursively. Clamping guarantees stack discipline even when
    wall/monotonic clocks of synthesized spans disagree slightly."""
    events.append(
        {
            "ph": "B",
            "name": span.name,
            "cat": "precis",
            "ts": begin_us,
            "pid": pid,
            "tid": tid,
            "args": {"counters": dict(span.counters)}
            if span.counters
            else {},
        }
    )
    base = span._mono_start
    for child in span.children:
        child_begin = begin_us + (child._mono_start - base) * 1e6
        child_end = child_begin + child.duration_s * 1e6
        child_begin = min(max(child_begin, begin_us), end_us)
        child_end = min(max(child_end, child_begin), end_us)
        _emit_span_events(child, child_begin, child_end, pid, tid, events)
    events.append(
        {
            "ph": "E",
            "name": span.name,
            "cat": "precis",
            "ts": end_us,
            "pid": pid,
            "tid": tid,
        }
    )


def chrome_trace_events(
    traces: Iterable[RequestTrace], pid: int = 1
) -> dict:
    """Render traces as a Chrome trace-event document.

    Each request gets its own ``tid`` row (named by trace id, outcome
    and worker via thread_name metadata), so concurrent requests —
    whose queue spans overlap their neighbours' execution in real time
    — never interleave B/E events on one stack. ``ts`` is microseconds
    since the earliest submit among the exported traces, and the event
    list is sorted by ``ts`` (stable, so nesting order survives ties).
    """
    traces = [t for t in traces if t.root is not None]
    events: list[dict] = []
    if traces:
        origin = min(t.root.wall_start for t in traces)
        for index, trace in enumerate(traces):
            tid = index + 1
            label = f"{trace.trace_id[:8]} {trace.outcome}"
            if trace.worker:
                label += f" @{trace.worker}"
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "ts": 0,
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
            begin_us = max((trace.root.wall_start - origin) * 1e6, 0.0)
            end_us = begin_us + trace.root.duration_s * 1e6
            _emit_span_events(
                trace.root, begin_us, end_us, pid, tid, events
            )
    events.sort(key=lambda event: event["ts"])  # stable: ties keep order
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(document: dict) -> list[str]:
    """Structural problems of a Chrome trace-event document (empty list
    = valid): sorted ``ts``, per-(pid, tid) B/E stack discipline with
    matching names, pid/tid/ts present on every event."""
    problems: list[str] = []
    if not isinstance(document, dict) or "traceEvents" not in document:
        return ["document is not a dict with a traceEvents list"]
    events = document["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    last_ts: Optional[float] = None
    stacks: dict[tuple, list[str]] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {index} is not an object")
            continue
        for key in ("ph", "ts", "pid", "tid"):
            if key not in event:
                problems.append(f"event {index} missing {key!r}")
        phase = event.get("ph")
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            if last_ts is not None and ts < last_ts:
                problems.append(
                    f"event {index} ts {ts} < previous ts {last_ts} "
                    "(not sorted)"
                )
            last_ts = ts
        if phase in ("B", "E"):
            if "name" not in event:
                problems.append(f"event {index} ({phase}) missing name")
                continue
            key = (event.get("pid"), event.get("tid"))
            stack = stacks.setdefault(key, [])
            if phase == "B":
                stack.append(event["name"])
            else:
                if not stack:
                    problems.append(
                        f"event {index}: E {event['name']!r} with no "
                        f"open B on pid/tid {key}"
                    )
                elif stack[-1] != event["name"]:
                    problems.append(
                        f"event {index}: E {event['name']!r} does not "
                        f"match open B {stack[-1]!r} on pid/tid {key}"
                    )
                    stack.pop()
                else:
                    stack.pop()
    for key, stack in stacks.items():
        if stack:
            problems.append(
                f"pid/tid {key}: {len(stack)} unclosed B event(s): {stack}"
            )
    return problems
