"""The worker pool: one précis engine behind a fixed set of threads.

:class:`PrecisService` runs asks on worker threads over one
:class:`~repro.core.engine.PrecisEngine`. It makes **no admission
decision**: every request handed to :meth:`PrecisService.submit` runs,
in arrival order. Deadlines, shedding, tenant quotas, coalescing,
priorities and the per-request metrics all belong to the admission
layer in front of it, :class:`~repro.service.frontdoor.AsyncFrontDoor`,
which dispatches at most one flight per worker — so the pool's hand-off
queue stays empty and every ordering decision is the front door's. What
the pool keeps:

* **Worker threads** — *workers* of them (one by default; the front
  door passes ``FrontDoorConfig.workers``), all asking the one engine,
  each with a private sinkless tracer for the whole thread lifetime.
* **Retry** — transient storage failures
  (:class:`~repro.storage.TransientStorageError`) retry with
  exponential backoff per :class:`~repro.service.retry.RetryPolicy`;
  exhaustion surfaces as
  :class:`~repro.service.errors.RetryExhausted`. Retries and failures
  are counted on the :class:`~repro.obs.metrics.ServiceMetrics` given
  as ``metrics=`` (the front door hands over its own).
* **Context activation** — a request may carry the
  :class:`~repro.obs.context.TraceContext` its submitter minted; the
  worker activates it into the ambient context
  (:func:`repro.obs.context.activate`) for the whole execution, so the
  engine, the metrics exemplars and the slow-query log all see the
  same trace id.
* **The per-request span tree** — for a request with a context, the
  worker builds ``request`` → ``queue`` → retry attempts → the
  engine's ``ask`` tree down to storage, and offers it to the
  :class:`~repro.obs.context.TraceBuffer` given as ``traces=`` *before*
  resolving the future, so a caller holding the answer can already
  find its trace.

Responses are :class:`concurrent.futures.Future` objects — callers may
block (:meth:`PrecisService.ask`), poll, or fan out. The front door
builds, owns and closes its pool; a pool used alone is closed by its
caller.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Any, Optional

from ..core.deadline import NO_DEADLINE, Deadline
from ..core.engine import PrecisEngine
from ..obs.context import (
    RequestTrace,
    TraceBuffer,
    TraceContext,
    activate,
    deactivate,
    synthetic_span,
)
from ..obs.metrics import ServiceMetrics
from ..obs.tracer import Tracer
from ..storage import PermanentStorageError
from .errors import RetryExhausted, ServiceClosed, outcome
from .retry import RetryPolicy, call_with_retry

__all__ = ["PrecisService"]

#: queue sentinel telling one worker to exit
_SHUTDOWN = object()


class _Request:
    __slots__ = ("query", "kwargs", "deadline", "future", "context")

    def __init__(self, query, kwargs, deadline, future, context):
        self.query = query
        self.kwargs = kwargs
        self.deadline = deadline
        self.future = future
        #: the submitter's TraceContext, or None (untraced)
        self.context = context


class PrecisService:
    """A fixed pool of worker threads running précis asks on one engine."""

    def __init__(
        self,
        engine: PrecisEngine,
        workers: int = 1,
        retry: Optional[RetryPolicy] = None,
        metrics: Optional[ServiceMetrics] = None,
        traces: Optional[TraceBuffer] = None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        #: the engine every worker asks
        self.engine = engine
        #: backoff policy for transient storage failures
        self.retry = retry if retry is not None else RetryPolicy()
        #: where retries and failures are counted; the front door
        #: passes its own, so one scrape covers the whole stack
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        #: request-trace capture (repro.obs.context); None = untraced
        self.traces = traces
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._close_lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"precis-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------- submit

    def submit(
        self,
        query,
        deadline: Optional[Deadline] = None,
        context: Optional[TraceContext] = None,
        **ask_kwargs: Any,
    ) -> "Future":
        """Hand one ask to the workers; returns the :class:`Future` of
        its answer.

        *deadline* is threaded into
        :meth:`~repro.core.engine.PrecisEngine.ask`, which degrades
        cooperatively once it expires; extra keyword arguments go
        straight to the engine (constraints, strategy, profile, ...).
        *context* is the request's trace context: with a trace buffer
        on the pool, the worker traces the execution under it.

        Raises :class:`ServiceClosed` after :meth:`close`.
        """
        if self._closed:
            raise ServiceClosed("service is closed")
        future: Future = Future()
        self._queue.put(
            _Request(
                query,
                ask_kwargs,
                deadline if deadline is not None else NO_DEADLINE,
                future,
                context if self.traces is not None else None,
            )
        )
        return future

    def ask(self, query, **kwargs: Any):
        """Synchronous :meth:`submit` — blocks for the answer."""
        return self.submit(query, **kwargs).result()

    # ------------------------------------------------------------- workers

    def _worker(self) -> None:
        # One sinkless tracer for the whole worker lifetime: its span
        # stack is thread-local and empties between requests, and a
        # fresh Tracer per request would allocate a threading.local
        # each time — cyclic garbage whose collection costs real
        # throughput on the hot path.
        tracer = Tracer() if self.traces is not None else None
        while True:
            request = self._queue.get()
            if request is _SHUTDOWN:
                return
            # perfbench/tracing.py wraps _serve and reads the request
            # by position, so the engine stays its first argument
            self._serve(self.engine, request, tracer)

    def _serve(
        self,
        engine: PrecisEngine,
        request: _Request,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not request.future.set_running_or_notify_cancel():
            return  # cancelled while queued
        metrics = self.metrics
        context = request.context
        # Activate the request context for the whole serve: the engine,
        # the metrics exemplars and the slow-query log read the trace
        # id from the ambient contextvar — no per-call plumbing.
        token = activate(context) if context is not None else None
        # The worker's sinkless tracer: we hold the root span directly,
        # and the engine's ask tree nests under it via the thread-local
        # span stack when we pass the tracer down.
        if context is None:
            tracer = None
        try:
            retries = 0

            def on_retry(attempt: int, exc: BaseException) -> None:
                nonlocal retries
                retries += 1
                metrics.retried()
                if tracer is not None:
                    # a zero-width event span between attempts: the
                    # trace shows ask (failed) → retry → ask (again)
                    with tracer.span("retry") as span:
                        span.counters["attempt"] = attempt
                        span.counters[type(exc).__name__] = 1

            ask_kwargs = request.kwargs
            if tracer is not None and "tracer" not in ask_kwargs:
                ask_kwargs = dict(ask_kwargs, tracer=tracer)

            answer = None
            failure: Optional[BaseException] = None
            span_cm = (
                tracer.span("request") if tracer is not None else None
            )
            root = span_cm.__enter__() if span_cm is not None else None
            try:
                answer = call_with_retry(
                    lambda: engine.ask(
                        request.query,
                        deadline=request.deadline,
                        **ask_kwargs,
                    ),
                    self.retry,
                    on_retry=on_retry,
                )
            except RetryExhausted as exc:
                metrics.retries_exhausted()
                metrics.failed("transient")
                failure = exc
            except PermanentStorageError as exc:
                metrics.failed("permanent")
                failure = exc
            except BaseException as exc:  # noqa: BLE001 — futures carry it
                metrics.failed(type(exc).__name__)
                failure = exc
            finally:
                if span_cm is not None:
                    span_cm.__exit__(None, None, None)

            if context is not None:
                self._offer_trace(context, root, retries, answer, failure)
            if failure is not None:
                request.future.set_exception(failure)
            else:
                request.future.set_result(answer)
        finally:
            if token is not None:
                deactivate(token)

    def _offer_trace(
        self,
        context: TraceContext,
        root,
        retries: int,
        answer,
        failure: Optional[BaseException],
    ) -> None:
        """Finish the request's span tree and offer it to the buffer.

        The ``request`` root opened at execution start is retro-extended
        to the submit instant the context recorded and given a
        synthetic ``queue`` child, so the exported trace spans submit →
        queue → retries → engine → storage. Runs *before* the future
        resolves: a caller that holds the answer can already find the
        trace."""
        waited = 0.0
        if root is not None:
            waited = max(root._mono_start - context.submitted_mono, 0.0)
            root.wall_start = context.submitted_wall
            root._mono_start -= waited
            root.children.insert(
                0,
                synthetic_span(
                    "queue",
                    context.submitted_wall,
                    waited,
                    mono_start=root._mono_start,
                ),
            )
        self.traces.offer(
            RequestTrace(
                context=context,
                root=root,
                outcome=outcome(answer, failure),
                duration_s=root.duration_s if root is not None else 0.0,
                queue_wait_s=waited,
                retries=retries,
                degraded_stage=(
                    answer.degraded_stage
                    if failure is None and answer.degraded
                    else None
                ),
                error=type(failure).__name__ if failure is not None else None,
                worker=threading.current_thread().name,
            )
        )

    # ------------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, wait: bool = True) -> None:
        """Stop accepting; serve what was handed over; join the workers.

        Requests already submitted are served to completion (their
        futures resolve normally). Idempotent.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._threads:
            self._queue.put(_SHUTDOWN)
        if wait:
            for thread in self._threads:
                thread.join()
            # a submit racing close may have landed behind a sentinel:
            # fail it rather than strand its future
            while True:
                try:
                    request = self._queue.get_nowait()
                except queue.Empty:
                    break
                if request is not _SHUTDOWN:
                    request.future.set_exception(
                        ServiceClosed("service closed before the request ran")
                    )

    def __enter__(self) -> "PrecisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self):
        return (
            f"PrecisService({len(self._threads)} worker(s)"
            f"{', closed' if self._closed else ''})"
        )
