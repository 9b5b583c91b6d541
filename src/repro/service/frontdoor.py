"""The asyncio front door: the serving stack's one admission layer.

:class:`AsyncFrontDoor` sits in front of a :class:`~repro.service.
PrecisService` worker pool and makes every admission decision a
request-per-user web front end needs:

* **Deadlines** — each request's deadline is resolved here, once:
  explicit *deadline* > *timeout_s* > ``FrontDoorConfig.
  default_timeout_s`` > none. A request already expired at submit is
  shed immediately (:class:`~repro.service.errors.StaleRequest`)
  without executing or coalescing; a pending flight that expires
  before dispatch is shed at dispatch; and a coalesced follower with a
  *tighter* deadline than its leader still honours its own — it is
  never handed an answer past its deadline, even though the leader's
  execution continues for the remaining waiters. A deadline that
  expires *during* execution degrades the answer cooperatively in the
  engine instead (a partial answer flagged ``degraded``).
* **Request coalescing** — keyword traffic is dominated by identical
  popular asks. Two submissions with the same *ask signature* — the
  answer-cache key: query tokens, resolved constraints, strategy, the
  canonical weight fingerprint of the effective graph (the tenant
  dimension), and the translate/path_scoped flags
  (:meth:`~repro.core.engine.PrecisEngine.ask_signature`) — produce
  byte-identical answers over an unmutated database, so while one is
  *in flight* the second never reaches an engine: it joins the first
  as a **follower** and the one execution's outcome (answer, degraded
  answer, or failure) is fanned out to every waiter. Signatures with
  different weight fingerprints never share a flight, so tenants with
  different effective weights cannot leak answers to each other; an
  uncacheable signature (opaque tuple weigher, unhashable constraint)
  is never coalesced at all.
* **Priority classes** — ``"interactive"`` requests are dispatched
  strictly before ``"batch"``; within a class the earliest deadline
  goes first (EDF). A batch-classified flight joined by an interactive
  follower is *upgraded*: the most urgent waiter sets the flight's
  class. When the pending queue is full, an arriving interactive
  request preempts the least-urgent pending batch flight rather than
  being shed behind it.
* **Tenant quotas** — with ``tenant_slots`` set, a flight is checked
  against its tenant's executing flights once, when it is dispatched;
  over quota, the flight is shed
  (:class:`~repro.service.errors.TenantQuotaExceeded`) and the one
  shed fans out to every waiter. The slot is released when the flight
  resolves.

Dispatch runs one flight per pool worker, so the pool's hand-off queue
stays empty and ordering decisions live entirely in the priority queue
here. Every shed is decided, counted and traced here; the metrics land
in the pool's :class:`~repro.obs.metrics.ServiceMetrics` — one façade,
one scrape for the whole stack.

Tracing: when the pool carries a :class:`~repro.obs.context.
TraceBuffer`, the front door mints each waiter's
:class:`~repro.obs.context.TraceContext` at submit. The leader's
context rides into the pool (``submit(context=)``), whose worker
traces the execution — front-door queueing plus the full engine
subtree; every follower and every shed waiter gets its own ``request``
span here, followers with a ``coalesced`` child and
:attr:`~repro.obs.context.RequestTrace.coalesced_into` naming the
leader's trace id.

Everything here runs on one event loop: submissions, admission,
coalescing bookkeeping, quotas and dispatch are loop-confined (no
locks), and only the engine execution crosses into the pool's worker
threads.
"""

from __future__ import annotations

import asyncio
import heapq
import math
import time
from dataclasses import dataclass
from typing import Any, Optional

from ..core.deadline import NO_DEADLINE, Deadline
from ..obs.context import RequestTrace, TraceContext, synthetic_span
from .errors import (
    QueueFull,
    ServiceClosed,
    StaleRequest,
    TenantQuotaExceeded,
)
from .service import PrecisService

__all__ = [
    "PRIORITY_INTERACTIVE",
    "PRIORITY_BATCH",
    "FrontDoorConfig",
    "AsyncFrontDoor",
]

PRIORITY_INTERACTIVE = "interactive"
PRIORITY_BATCH = "batch"

#: dispatch order: lower rank first; within a rank, earliest deadline
_RANK = {PRIORITY_INTERACTIVE: 0, PRIORITY_BATCH: 1}

#: shed exception -> the reason its shed is counted and traced under
_SHED_REASON = {
    QueueFull: "full",
    StaleRequest: "stale",
    TenantQuotaExceeded: "tenant_quota",
    ServiceClosed: "closed",
}


class _FollowerStale(Exception):
    """Internal: a coalesced follower outlived its own deadline while
    waiting on the leader (converted to StaleRequest at the boundary)."""

    def __init__(self, waited_s: float):
        super().__init__(waited_s)
        self.waited_s = waited_s


@dataclass(frozen=True)
class FrontDoorConfig:
    """Admission policy of one :class:`AsyncFrontDoor`."""

    #: bound on *pending* (admitted, undispatched) flights
    max_pending: int = 256
    #: deadline for requests that carry none (seconds; None = none)
    default_timeout_s: Optional[float] = None
    #: fair share: max executing flights per tenant; None disables
    #: per-tenant quotas. Requests without a tenant are never limited.
    tenant_slots: Optional[int] = None
    #: merge identical in-flight asks into one engine execution
    coalesce: bool = True

    def __post_init__(self):
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if self.tenant_slots is not None and self.tenant_slots < 1:
            raise ValueError("tenant_slots must be at least 1")


class _Flight:
    """One logical engine execution and the waiters coalesced onto it."""

    __slots__ = (
        "key", "query", "ask_kwargs", "deadline", "tenant", "priority",
        "context", "future", "state", "dispatched", "holds_slot",
        "waiters", "seq", "expiry_key", "admitted_mono",
    )

    def __init__(self, key, query, ask_kwargs, deadline, tenant, priority,
                 context, future):
        self.key = key
        self.query = query
        self.ask_kwargs = ask_kwargs
        self.deadline = deadline
        self.tenant = tenant
        self.priority = priority
        self.context = context
        self.future = future
        #: "pending" (queued) -> "dispatched" (executing) -> "done"
        self.state = "pending"
        #: handed to the pool (which then traces the leader)
        self.dispatched = False
        #: holds one of its tenant's slots until resolved
        self.holds_slot = False
        self.waiters = 1
        self.seq = 0
        self.expiry_key = math.inf
        self.admitted_mono = 0.0

    @property
    def rank(self) -> int:
        return _RANK[self.priority]

    @property
    def leader_trace_id(self) -> Optional[str]:
        return self.context.trace_id if self.context is not None else None


class AsyncFrontDoor:
    """Coalescing, priority-scheduling asyncio admission layer over one
    :class:`~repro.service.PrecisService` worker pool.

    All coroutine methods must run on one event loop (state is
    loop-confined by design). The front door does not own the pool:
    closing the front door drains its own queue but leaves the pool
    running unless ``close(close_service=True)``.
    """

    def __init__(
        self,
        service: PrecisService,
        config: Optional[FrontDoorConfig] = None,
    ):
        self.service = service
        self.config = config if config is not None else FrontDoorConfig()
        self.metrics = service.metrics
        self._flights: dict[Any, _Flight] = {}
        self._heap: list[tuple[int, float, int, _Flight]] = []
        self._seq = 0
        self._pending_count = 0
        self._tenant_inflight: dict[str, int] = {}
        self._closed = False
        self._started = False
        self._work: Optional[asyncio.Event] = None
        self._dispatchers: list[asyncio.Task] = []

    # ------------------------------------------------------------- submit

    async def submit(
        self,
        query,
        deadline: Optional[Deadline] = None,
        timeout_s: Optional[float] = None,
        tenant: Optional[str] = None,
        priority: str = PRIORITY_INTERACTIVE,
        **ask_kwargs: Any,
    ):
        """Answer one ask through the front door; returns the
        :class:`~repro.core.answer.PrecisAnswer` (or raises the shed /
        failure exception the execution produced).

        Deadline resolution: explicit *deadline* > *timeout_s* >
        ``FrontDoorConfig.default_timeout_s`` > none. *priority* must
        be ``"interactive"`` or ``"batch"``. *tenant* labels the
        request's metrics and, with ``tenant_slots`` set, counts its
        flight against that tenant's quota. Remaining keyword
        arguments go to :meth:`~repro.core.engine.PrecisEngine.ask` and
        take part in the coalescing signature (an argument the
        signature cannot canonicalize — e.g. a *tuple_weigher* —
        disables coalescing for that request only).
        """
        if priority not in _RANK:
            raise ValueError(
                f"priority must be one of {sorted(_RANK)}, got {priority!r}"
            )
        self._ensure_started()
        start = time.monotonic()
        context: Optional[TraceContext] = None
        if self.service.traces is not None:
            context = TraceContext.mint(
                query=getattr(query, "text", None) or str(query),
                tenant=tenant,
                priority=priority,
            )
        metrics = self.metrics
        metrics.submitted(priority, tenant)
        try:
            if self._closed:
                self._shed(context, "closed", priority, tenant)
                raise ServiceClosed("front door is closed")
            deadline = self._resolve_deadline(deadline, timeout_s)
            if context is not None and deadline.expires():
                context.deadline_s = deadline.remaining()
            # Shed-on-stale at submit: an already-expired request
            # neither executes nor joins a flight — running it could
            # only produce an empty degraded shell, and coalescing it
            # would hand it an answer past its deadline anyway.
            if deadline.expires() and deadline.expired():
                self._shed(context, "stale", priority, tenant)
                raise StaleRequest(0.0)

            key = (
                self._coalesce_key(query, ask_kwargs)
                if self.config.coalesce
                else None
            )
            flight = self._flights.get(key) if key is not None else None
            if flight is not None and flight.state != "done":
                # -------- follower: identical ask already in flight
                metrics.coalesced(priority)
                flight.waiters += 1
                self._maybe_upgrade(flight, priority)
                follower = True
            else:
                # ------------ leader: admit a fresh flight
                flight = self._admit(
                    query, ask_kwargs, key, deadline, tenant, priority,
                    context, start,
                )
                follower = False
            return await self._join(
                flight, deadline, priority, tenant, context, start, follower
            )
        finally:
            metrics.resolved()

    async def ask(self, query, **kwargs: Any):
        """Alias of :meth:`submit` (symmetry with PrecisService)."""
        return await self.submit(query, **kwargs)

    def _resolve_deadline(
        self, deadline: Optional[Deadline], timeout_s: Optional[float]
    ) -> Deadline:
        if deadline is not None:
            return deadline
        seconds = (
            timeout_s
            if timeout_s is not None
            else self.config.default_timeout_s
        )
        return Deadline.after(seconds) if seconds is not None else NO_DEADLINE

    def _coalesce_key(self, query, ask_kwargs) -> Optional[tuple]:
        """The flight key of one submission: the engine's canonical ask
        signature, or None when the call must not be coalesced."""
        engine = self.service.engines[0]
        try:
            return engine.ask_signature(query, **ask_kwargs)
        except TypeError:
            # an argument the signature doesn't canonicalize (tracer=,
            # unknown kwarg...): run it uncoalesced, the engine will
            # surface any real error
            return None

    # ---------------------------------------------------------- admission

    def _admit(
        self, query, ask_kwargs, key, deadline, tenant, priority, context,
        start,
    ) -> _Flight:
        if self._pending_count >= self.config.max_pending:
            if not self._preempt_for(priority):
                self._shed(context, "full", priority, tenant)
                raise QueueFull(self.config.max_pending)
        flight = _Flight(
            key, query, dict(ask_kwargs), deadline, tenant, priority,
            context, asyncio.get_running_loop().create_future(),
        )
        self._seq += 1
        flight.seq = self._seq
        flight.admitted_mono = start
        flight.expiry_key = (
            deadline.remaining() if deadline.expires() else math.inf
        )
        if key is not None:
            self._flights[key] = flight
        self._pending_count += 1
        self.metrics.pending.add(1)
        heapq.heappush(
            self._heap,
            (flight.rank, flight.expiry_key, flight.seq, flight),
        )
        self._work.set()
        return flight

    def _maybe_upgrade(self, flight: _Flight, priority: str) -> None:
        """An interactive follower joining a pending batch flight makes
        the flight interactive — the most urgent waiter sets the class,
        so a duplicate ask is never stuck behind the batch backlog."""
        if flight.state != "pending" or _RANK[priority] >= flight.rank:
            return
        flight.priority = priority
        heapq.heappush(
            self._heap,
            (flight.rank, flight.expiry_key, flight.seq, flight),
        )
        self._work.set()

    def _preempt_for(self, priority: str) -> bool:
        """Full queue + interactive arrival: evict the least-urgent
        pending *batch* flight (latest deadline, latest arrival) to
        make room. Counted once per evicted flight; every coalesced
        waiter of the victim sees QueueFull."""
        if priority != PRIORITY_INTERACTIVE:
            return False
        victim: Optional[_Flight] = None
        victim_order: tuple = ()
        for __, expiry, seq, flight in self._heap:
            if flight.state == "pending" and flight.rank == _RANK[PRIORITY_BATCH]:
                order = (expiry, seq)
                if victim is None or order > victim_order:
                    victim, victim_order = flight, order
        if victim is None:
            return False
        self._pending_count -= 1
        self.metrics.shed("preempted", victim.priority, victim.tenant)
        self._resolve_flight(
            victim, error=QueueFull(self.config.max_pending)
        )
        return True

    def _take_slot(self, flight: _Flight) -> bool:
        """Claim one of the flight's tenant slots (False when all are
        held; always True without a tenant or a quota)."""
        slots = self.config.tenant_slots
        if flight.tenant is None or slots is None:
            return True
        held = self._tenant_inflight.get(flight.tenant, 0)
        if held >= slots:
            return False
        self._tenant_inflight[flight.tenant] = held + 1
        flight.holds_slot = True
        return True

    def _release_slot(self, tenant: str) -> None:
        held = self._tenant_inflight.pop(tenant) - 1
        if held:
            self._tenant_inflight[tenant] = held

    def tenant_inflight(self, tenant: str) -> int:
        """Execution slots *tenant*'s flights hold right now."""
        return self._tenant_inflight.get(tenant, 0)

    # ---------------------------------------------------------- waiting

    async def _join(
        self,
        flight: _Flight,
        deadline: Deadline,
        priority: str,
        tenant: Optional[str],
        context: Optional[TraceContext],
        start: float,
        follower: bool,
    ):
        coalesced_into = flight.leader_trace_id if follower else None
        try:
            answer = await self._wait(flight, deadline, follower, start)
        except _FollowerStale as exc:
            # waiter-level shed: this follower's own deadline, nobody
            # else's — the leader execution continues for the rest
            self._shed(
                context, "stale_follower", priority, tenant,
                outcome="shed_stale", coalesced_into=coalesced_into,
            )
            raise StaleRequest(exc.waited_s) from None
        except BaseException as exc:
            # a flight-level shed (counted once, when decided) or an
            # execution failure (counted by the pool); every waiter the
            # pool did not trace still reports its own trace
            if follower or not flight.dispatched:
                reason = _SHED_REASON.get(type(exc))
                self._record_trace(
                    context,
                    f"shed_{reason}" if reason is not None else "failed",
                    coalesced_into=coalesced_into,
                    error=exc,
                )
            raise
        self.metrics.answered(
            time.monotonic() - start,
            priority,
            degraded_stage=answer.degraded_stage if answer.degraded else None,
            tenant=tenant,
            trace_id=context.trace_id if context is not None else None,
        )
        if follower:
            self._record_trace(
                context,
                "degraded" if answer.degraded else "answered",
                coalesced_into=coalesced_into,
            )
        return answer

    async def _wait(
        self, flight: _Flight, deadline: Deadline, follower: bool,
        start: float,
    ):
        """Await the flight's outcome; a follower is additionally bound
        by its *own* deadline (the leader's execution deadline may be
        looser)."""
        if not (follower and deadline.expires()):
            return await asyncio.shield(flight.future)
        remaining = deadline.remaining()
        try:
            answer = await asyncio.wait_for(
                asyncio.shield(flight.future), timeout=remaining
            )
        except asyncio.TimeoutError:
            raise _FollowerStale(time.monotonic() - start) from None
        if deadline.expired():
            # injectable clocks / boundary races: the wall timeout may
            # not have fired, but the follower's own deadline has — it
            # is never served past it
            raise _FollowerStale(time.monotonic() - start)
        return answer

    # ---------------------------------------------------------- dispatch

    def _ensure_started(self) -> None:
        if self._started:
            return
        loop = asyncio.get_running_loop()
        self._work = asyncio.Event()
        self._dispatchers = [
            loop.create_task(self._dispatch_loop(), name=f"frontdoor-{i}")
            for i in range(self.service.workers)
        ]
        self._started = True

    async def _dispatch_loop(self) -> None:
        while True:
            flight = await self._next_flight()
            if flight is None:
                return
            await self._execute(flight)

    async def _next_flight(self) -> Optional[_Flight]:
        while True:
            while self._heap:
                rank, __, __, flight = heapq.heappop(self._heap)
                if flight.state != "pending" or rank != flight.rank:
                    continue  # resolved, executing, or upgraded duplicate
                flight.state = "dispatched"
                self._pending_count -= 1
                return flight
            if self._closed:
                return None
            self._work.clear()
            await self._work.wait()

    async def _execute(self, flight: _Flight) -> None:
        # stale at dispatch: the flight's deadline ran out while queued
        if flight.deadline.expires() and flight.deadline.expired():
            self._shed_flight(
                flight,
                StaleRequest(time.monotonic() - flight.admitted_mono),
            )
            return
        if not self._take_slot(flight):
            self._shed_flight(
                flight,
                TenantQuotaExceeded(flight.tenant, self.config.tenant_slots),
            )
            return
        try:
            future = self.service.submit(
                flight.query,
                deadline=flight.deadline,
                context=flight.context,
                **flight.ask_kwargs,
            )
        except ServiceClosed as exc:
            # the pool was closed under the front door
            self._shed_flight(flight, exc)
            return
        flight.dispatched = True
        self.metrics.executed()
        try:
            answer = await asyncio.wrap_future(future)
        except BaseException as exc:
            self._resolve_flight(flight, error=exc)
            return
        self._resolve_flight(flight, result=answer)

    def _shed_flight(self, flight: _Flight, error: BaseException) -> None:
        """One flight-level shed: counted once, fanned out to every
        waiter (each waiter traces its own outcome in :meth:`_join`)."""
        self.metrics.shed(
            _SHED_REASON[type(error)], flight.priority, flight.tenant
        )
        self._resolve_flight(flight, error=error)

    def _resolve_flight(self, flight: _Flight, result=None, error=None):
        """Fan one outcome out to every waiter, exactly once."""
        if flight.state == "done":
            return
        flight.state = "done"
        if (
            flight.key is not None
            and self._flights.get(flight.key) is flight
        ):
            del self._flights[flight.key]
        if flight.holds_slot:
            self._release_slot(flight.tenant)
        self.metrics.pending.add(-1)
        if error is not None:
            flight.future.set_exception(error)
        else:
            flight.future.set_result(result)

    # ---------------------------------------------------------- tracing

    def _shed(
        self,
        context: Optional[TraceContext],
        reason: str,
        priority: str,
        tenant: Optional[str],
        outcome: Optional[str] = None,
        coalesced_into: Optional[str] = None,
    ) -> None:
        """One waiter-level shed: counted and traced."""
        self.metrics.shed(reason, priority, tenant)
        self._record_trace(
            context,
            outcome or f"shed_{reason}",
            coalesced_into=coalesced_into,
        )

    def _record_trace(
        self,
        context: Optional[TraceContext],
        outcome: str,
        coalesced_into: Optional[str] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """One waiter's trace when no worker traced it: a synthetic
        ``request`` root with a ``coalesced`` child (a follower, who
        waited on another execution) or a ``shed`` child. Shed and
        failed outcomes always trigger buffer admission, so under
        overload the buffer fills with exactly the requests that were
        turned away."""
        buffer = self.service.traces
        if buffer is None or context is None:
            return
        duration = max(time.perf_counter() - context.submitted_mono, 0.0)
        root = synthetic_span("request", context.submitted_wall, duration)
        if coalesced_into is not None:
            root.children.append(
                synthetic_span("coalesced", context.submitted_wall, duration)
            )
        else:
            root.children.append(
                synthetic_span(
                    "shed",
                    context.submitted_wall + duration,
                    0.0,
                    mono_start=duration,
                )
            )
        buffer.offer(
            RequestTrace(
                context=context,
                root=root,
                outcome=outcome,
                duration_s=duration,
                queue_wait_s=duration if outcome.startswith("shed") else 0.0,
                error=type(error).__name__ if error is not None else None,
                worker="frontdoor",
                coalesced_into=coalesced_into,
            )
        )

    # ---------------------------------------------------------- lifecycle

    @property
    def closed(self) -> bool:
        return self._closed

    def pending(self) -> int:
        """Flights admitted but not yet resolved (pending + executing)."""
        return int(self.metrics.pending.value)

    async def close(self, close_service: bool = False) -> None:
        """Stop admitting, drain pending flights, stop the dispatchers.

        Flights already admitted are executed (or shed stale) to
        completion, so no waiter is ever stranded. Idempotent. Pass
        ``close_service=True`` to also close the wrapped
        :class:`PrecisService` afterwards."""
        self._closed = True
        if self._started:
            self._work.set()
            await asyncio.gather(*self._dispatchers)
        if close_service:
            self.service.close()

    async def __aenter__(self) -> "AsyncFrontDoor":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def __repr__(self):
        return (
            f"AsyncFrontDoor({self.service!r}, pending={self.pending()}, "
            f"coalesce={self.config.coalesce}"
            f"{', closed' if self._closed else ''})"
        )
