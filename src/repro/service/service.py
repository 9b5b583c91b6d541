"""The front door's worker pool: one précis engine behind a fixed set
of threads.

:class:`PrecisService` is built, owned and closed by
:class:`~repro.service.frontdoor.AsyncFrontDoor`, which dispatches at
most one flight per worker, so the pool's hand-off queue stays empty
and every admission and ordering decision is the front door's. The
pool runs what it is handed, in arrival order, and keeps two things:

* **Worker threads** — *workers* of them, all asking the one engine.
* **Retry** — transient storage failures
  (:class:`~repro.storage.TransientStorageError`) retry with
  exponential backoff per :class:`~repro.service.retry.RetryPolicy`;
  exhaustion surfaces as :class:`~repro.service.errors.RetryExhausted`.

A request may carry the :class:`~repro.obs.context.TraceContext` its
submitter minted. The worker then activates it for the whole execution
(:func:`repro.obs.context.activate`), so the engine, the metrics
exemplars and the slow-query log see its trace id, and opens a
``request`` span over one ``retry`` span per backoff and the engine's
``ask`` tree. The pool counts and records nothing itself: the
:class:`Execution` that :meth:`PrecisService.submit` returns carries the
root span, the retry count and the worker's name back with the outcome,
and the front door counts the execution and records its trace.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from contextlib import nullcontext
from typing import Any, Optional

from ..core.deadline import Deadline
from ..core.engine import PrecisEngine
from ..obs.context import TraceContext, activate, deactivate
from ..obs.tracer import Span, Tracer
from .retry import RetryPolicy, call_with_retry

__all__ = ["Execution", "PrecisService"]

#: queue sentinel telling one worker to exit
_SHUTDOWN = object()


class Execution(Future):
    """The future of one ask handed to the pool; once it resolves, it
    also says how the worker ran the ask."""

    #: the ``request`` span of a traced request (None untraced)
    root: Optional[Span] = None
    #: transient failures retried before the outcome
    retries = 0
    #: the name of the worker thread that ran the ask
    worker: Optional[str] = None


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

    def __init__(self, engine: PrecisEngine, workers: int, retry: RetryPolicy):
        #: the engine every worker asks
        self.engine = engine
        #: backoff policy for transient storage failures
        self.retry = retry
        self._queue: queue.Queue = queue.Queue()
        # One sinkless tracer for every worker: its span stack is per
        # thread and empties between requests, and a fresh Tracer per
        # request would allocate a threading.local each time — cyclic
        # garbage whose collection costs real throughput.
        self._tracer = Tracer()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"precis-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    def submit(
        self,
        query,
        deadline: Deadline,
        context: Optional[TraceContext],
        **ask_kwargs: Any,
    ) -> Execution:
        """Hand one ask to the workers; returns its :class:`Execution`.

        *deadline* is threaded into
        :meth:`~repro.core.engine.PrecisEngine.ask`, which degrades
        cooperatively once it expires; extra keyword arguments go
        straight to the engine. With a *context*, the worker traces the
        execution under it."""
        execution = Execution()
        self._queue.put(
            _Request(query, ask_kwargs, deadline, execution, context)
        )
        return execution

    def _worker(self) -> None:
        while True:
            request = self._queue.get()
            if request is _SHUTDOWN:
                return
            # perfbench/tracing.py wraps _serve and reads the request
            # by position, so the engine stays its first argument
            self._serve(self.engine, request, self._tracer)

    def _serve(
        self, engine: PrecisEngine, request: _Request, tracer: Tracer
    ) -> None:
        execution = request.future
        if not execution.set_running_or_notify_cancel():
            return  # cancelled while queued
        execution.worker = threading.current_thread().name
        context = request.context
        ask_kwargs = request.kwargs
        if context is None:
            tracer = None
            request_span = nullcontext()
        else:
            request_span = tracer.span("request")
            if "tracer" not in ask_kwargs:
                # the engine's ask tree nests under the request root
                # via the tracer's per-thread span stack
                ask_kwargs = dict(ask_kwargs, tracer=tracer)

        def ask():
            return engine.ask(
                request.query, deadline=request.deadline, **ask_kwargs
            )

        def on_retry(attempt: int, exc: BaseException) -> None:
            execution.retries += 1
            if tracer is not None:
                # a zero-width event span between attempts: the trace
                # shows ask (failed) → retry → ask (again)
                with tracer.span("retry") as span:
                    span.counters["attempt"] = attempt
                    span.counters[type(exc).__name__] = 1

        # Activate the request context for the whole serve: the engine,
        # the metrics exemplars and the slow-query log read the trace
        # id from the ambient contextvar — no per-call plumbing.
        token = activate(context) if context is not None else None
        try:
            with request_span as execution.root:
                answer = call_with_retry(ask, self.retry, on_retry=on_retry)
        except BaseException as exc:  # noqa: BLE001 — the future carries it
            execution.set_exception(exc)
        else:
            execution.set_result(answer)
        finally:
            if token is not None:
                deactivate(token)

    def close(self) -> None:
        """Serve what was handed over, then stop and join the workers."""
        for __ in self._threads:
            self._queue.put(_SHUTDOWN)
        for thread in self._threads:
            thread.join()
