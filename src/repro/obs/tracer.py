"""Stage spans and the tracer that records them.

A :class:`Span` is one timed region of pipeline work — "match",
"schema_generator", "database_generator", "translate", "build_index" —
carrying a wall-clock start, a monotonic duration, a dict of typed
integer counters, and nested child spans. A :class:`Tracer` maintains
the currently open span stack and delivers every *root* span, once
closed, to its sinks (see :mod:`repro.obs.sinks`).

The default tracer everywhere in the engine is :data:`NULL_TRACER`,
whose ``span()`` hands back one shared no-op context manager and whose
``count()`` returns immediately — tracing off costs one
attribute check per call site and allocates nothing, so the pipeline's
behaviour (and the answers it produces) are byte-identical with and
without instrumentation.

Counter semantics: ``count`` *adds* to the innermost open span. Counts
issued while no span is open are dropped (the null path behaves
identically). Counter values are plain ints; the
canonical names are listed in :data:`COUNTER_GLOSSARY`.

A closed span tree is the one per-ask record: the engine hangs the
``ask`` root on :attr:`repro.core.answer.PrecisAnswer.stats`, metrics
digest it, ``--stats`` renders it and trace files store its
:meth:`Span.to_dict` form.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "COUNTER_GLOSSARY"]


#: canonical counter names -> meaning (see docs/observability.md); the
#: engine only ever emits these names (plus the odd extra documented at
#: its call site), so dashboards and tests can key on them
COUNTER_GLOSSARY: dict[str, str] = {
    "tokens_matched": "query tokens that matched at least one tuple",
    "relations_expanded": "relations admitted into the result schema G'",
    "paths_pruned": "candidate paths cut by a terminal degree failure",
    "paths_pushed": "paths pushed onto the schema generator's queue",
    "paths_popped": "paths popped off the schema generator's queue",
    "paths_admitted": "projection paths admitted into G'",
    "seed_tuples": "tuples seeded from the inverted-index matches",
    "joins_executed": "G' join edges executed by the database generator",
    "joins_skipped": "G' join edges skipped (no driving values / budget)",
    "tuples_emitted": "tuples deposited into the answer database",
    "cache_hit": "plan-cache hits (result schema served from cache)",
    "cache_miss": "plan-cache misses (schema was generated anew)",
    "answer_cache_hit": "answer-cache hits (whole ask short-circuited)",
    "answer_cache_miss": "answer-cache misses (pipeline ran in full)",
    "cache_invalidation": "cache entries discarded for a stale epoch token",
    "paragraphs_emitted": "narrative paragraphs produced by the translator",
    "attributes_indexed": "(relation, attribute) pairs indexed",
    "values_indexed": "non-NULL attribute values added to the index",
}


class Span:
    """One timed, counted region of work, possibly with children."""

    __slots__ = (
        "name",
        "wall_start",
        "counters",
        "children",
        "_mono_start",
        "_mono_end",
    )

    def __init__(self, name: str):
        self.name = name
        self.wall_start: float = 0.0
        self.counters: dict[str, int] = {}
        self.children: list["Span"] = []
        self._mono_start: float = 0.0
        self._mono_end: Optional[float] = None

    # ------------------------------------------------------------- lifecycle

    def _start(self) -> None:
        self.wall_start = time.time()
        self._mono_start = time.perf_counter()

    def _finish(self) -> None:
        self._mono_end = time.perf_counter()

    @property
    def finished(self) -> bool:
        return self._mono_end is not None

    @property
    def duration_s(self) -> float:
        """Monotonic duration in seconds (0.0 while the span is open)."""
        if self._mono_end is None:
            return 0.0
        return self._mono_end - self._mono_start

    # ------------------------------------------------------------- queries

    def counter(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def walk(self) -> Iterable[tuple["Span", int]]:
        """Depth-first (span, depth) pairs, self first."""
        stack: list[tuple[Span, int]] = [(self, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(span.children):
                stack.append((child, depth + 1))

    def find(self, name: str) -> Optional["Span"]:
        """First span named *name* in depth-first order (self included)."""
        for span, __ in self.walk():
            if span.name == name:
                return span
        return None

    def total_counters(self) -> dict[str, int]:
        """Counters aggregated over this span and all descendants."""
        totals: dict[str, int] = {}
        for span, __ in self.walk():
            for key, value in span.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def to_dict(self) -> dict:
        """JSON-compatible snapshot of the tree (seconds throughout).

        Each span's ``offset_s`` is its start relative to this span's,
        which is what lays siblings out inside their parent once the
        tree is rebuilt by :meth:`from_dict`."""
        origin = self._mono_start

        def encode(span: "Span") -> dict:
            return {
                "name": span.name,
                "offset_s": span._mono_start - origin,
                "duration_s": span.duration_s,
                "wall_start": span.wall_start,
                "counters": dict(span.counters),
                "children": [encode(child) for child in span.children],
            }

        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a closed tree from :meth:`to_dict` output. Monotonic
        times are the recorded offsets, so every offset and duration
        survives the round trip."""
        span = cls(data["name"])
        span._mono_start = float(data.get("offset_s", 0.0))
        span._mono_end = span._mono_start + float(data.get("duration_s", 0.0))
        span.wall_start = float(data.get("wall_start", 0.0))
        span.counters = dict(data.get("counters", {}))
        span.children = [cls.from_dict(child) for child in data["children"]]
        return span

    def __repr__(self):
        return (
            f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms, "
            f"{len(self.counters)} counters, {len(self.children)} children)"
        )


class _SpanContext:
    """Context manager opening one span on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._span = Span(name)

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        self._span._start()
        return self._span

    def __exit__(self, exc_type, exc, tb):
        self._span._finish()
        self._tracer._pop(self._span)
        return False


class _NullSpanContext:
    """Shared no-op context manager; yields one shared dummy span."""

    __slots__ = ("_span",)

    def __init__(self):
        self._span = Span("<null>")

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class Tracer:
    """Records nested stage spans and forwards closed roots to sinks.

    >>> from repro.obs import Tracer, InMemorySink
    >>> sink = InMemorySink()
    >>> tracer = Tracer([sink])
    >>> with tracer.span("outer"):
    ...     tracer.count("things", 2)
    ...     with tracer.span("inner"):
    ...         tracer.count("things", 1)
    >>> sink.spans[0].total_counters()["things"]
    3
    """

    def __init__(self, sinks: Optional[Iterable] = None, enabled: bool = True):
        self.sinks = list(sinks) if sinks is not None else []
        self.enabled = enabled
        # The open-span stack is *thread-local*: concurrent asks through
        # one shared engine (and hence one shared tracer) each build
        # their own span tree — counters land on the issuing thread's
        # innermost span and cannot mis-parent across threads.
        self._local = threading.local()

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------- recording

    def span(self, name: str):
        """Open a nested stage span: ``with tracer.span("match") as s:``."""
        if not self.enabled:
            return _NULL_SPAN_CONTEXT
        return _SpanContext(self, name)

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name* of the innermost open span."""
        if not self.enabled or not self._stack:
            return
        counters = self._stack[-1].counters
        counters[name] = counters.get(name, 0) + amount

    # ------------------------------------------------------------- stack

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # tolerate a corrupted stack (an exception unwound past a span)
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        if not self._stack:
            for sink in self.sinks:
                sink.emit(span)

    def __repr__(self):
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self.sinks)} sinks, depth={len(self._stack)})"


class NullTracer(Tracer):
    """The no-op tracer threaded through the engine by default.

    Immutable-by-convention singleton (:data:`NULL_TRACER`): never give
    it sinks; ``enabled`` stays False.
    """

    def __init__(self):
        super().__init__(sinks=None, enabled=False)

    def span(self, name: str):
        return _NULL_SPAN_CONTEXT

    def count(self, name: str, amount: int = 1) -> None:
        return None


#: shared process-wide no-op tracer — the default for every instrumented
#: call site; recording nothing, it keeps traced and untraced runs
#: behaviourally identical.
NULL_TRACER = NullTracer()
