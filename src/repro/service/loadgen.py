"""The load generator: closed or open loop through the async front door.

One generator for every serving benchmark (``repro serve-bench``, the
``benchmarks/`` gates and experiments). It offers a seeded stream of
asks to an :class:`~repro.service.frontdoor.AsyncFrontDoor` and
tallies what each caller saw:

* **Closed loop** (``LoadConfig.arrival_rate`` is None) — *clients*
  callers, each awaiting :meth:`~AsyncFrontDoor.submit` in turn for
  *requests* asks. A client never has more than one request in flight,
  so offered load adapts to capacity: this measures what the stack
  sustains.
* **Open loop** — a precomputed Poisson schedule (exponential
  inter-arrivals at ``arrival_rate`` for ``duration_s``) fires each
  request at its instant whether or not earlier ones resolved. Real
  keyword-search traffic arrives by its own clock, and the interesting
  regime for coalescing and priorities — a stack at 2x its capacity
  that must shed — is exactly the one a closed loop cannot reach
  (Schroeder et al.'s closed/open distinction).

Both loops draw each ask the same way: with probability
``duplicate_fraction`` the *hot* query (the coalescing target),
otherwise one of the rest, and the class ``batch`` with probability
``batch_fraction``. The payload reports goodput (non-degraded answers
per second of makespan), throughput, shed rate, the coalescing hit
rate (followers / offered, from the front door's own counters),
latency percentiles overall and per class, and the SLO snapshot.

:func:`run_bench` packages the experiment: the same stream replayed
against a fresh stack twice — coalescing on, then off — reporting both
payloads and the goodput ratio.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.engine import PrecisEngine
from ..obs.context import TraceBuffer
from ..obs.profile import StackSampler
from ..obs.slo import SLOTracker
from .errors import (
    QueueFull,
    ServiceClosed,
    StaleRequest,
    TenantQuotaExceeded,
)
from .frontdoor import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    AsyncFrontDoor,
    FrontDoorConfig,
)
from .service import PrecisService, ServiceConfig

__all__ = [
    "LoadConfig",
    "percentile",
    "movies_workload",
    "run_load",
    "run_bench",
    "measure_trace_overhead",
]

#: caller-side outcome of one shed exception
_SHED_OUTCOME = {
    StaleRequest: "shed_stale",
    QueueFull: "shed_full",
    TenantQuotaExceeded: "shed_tenant_quota",
    ServiceClosed: "shed_closed",
}
_OUTCOMES = ("answered", "degraded", *_SHED_OUTCOME.values(), "failed")


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The *q*-th percentile by linear interpolation (None when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


def movies_workload(
    n_movies: int = 300, backend: Optional[str] = None
) -> tuple[PrecisEngine, list[str]]:
    """A deterministic mid-size workload: synthetic movies database +
    a query mix that exercises single-token, multi-relation and
    phrase matching."""
    from ..datasets import generate_movies_database, movies_graph

    db = generate_movies_database(n_movies=n_movies, seed=11, backend=backend)
    engine = PrecisEngine(db, graph=movies_graph())
    queries = [
        "midnight",
        "drama",
        "garcia",
        "thriller",
        "comedy",
        "crimson harbor",
    ]
    return engine, queries


@dataclass(frozen=True)
class LoadConfig:
    """One offered stream, not the system under it."""

    #: closed loop: concurrent clients, each awaiting its answer
    clients: int = 8
    #: closed loop: asks per client
    requests: int = 25
    #: open loop: mean offered load, requests/second (Poisson
    #: arrivals); None runs the closed loop
    arrival_rate: Optional[float] = None
    #: open loop: length of the arrival schedule, seconds (the run
    #: itself lasts until the last outstanding request resolves)
    duration_s: float = 2.0
    #: share of asks aimed at the hot query — the coalescable mass
    duplicate_fraction: float = 0.5
    #: share of asks classed ``batch`` (the rest ``interactive``)
    batch_fraction: float = 0.0
    #: per-request deadline (None = none); expired requests shed or
    #: degrade instead of queueing forever
    deadline_ms: Optional[float] = None
    #: RNG seed — the stream is fully deterministic given the config
    seed: int = 0

    def __post_init__(self):
        if self.clients < 1 or self.requests < 1:
            raise ValueError("clients and requests must be at least 1")
        if self.arrival_rate is not None and self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        for name in ("duplicate_fraction", "batch_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")

    @property
    def closed_loop(self) -> bool:
        return self.arrival_rate is None


def _stream(
    config: LoadConfig, n_queries: int
) -> list[tuple[float, int, str]]:
    """The precomputed stream: (offset_s, query_index, priority).

    Query index 0 is the hot (duplicate) target; the rest of the
    catalog is drawn uniformly. A closed loop has
    ``clients * requests`` entries at offset 0; an open loop one entry
    per Poisson arrival. Precomputing keeps the stream identical across
    the coalescing-on and coalescing-off arms of an A/B run."""
    rng = random.Random(config.seed)

    def draw() -> tuple[int, str]:
        if n_queries > 1 and rng.random() >= config.duplicate_fraction:
            index = rng.randrange(1, n_queries)
        else:
            index = 0
        priority = (
            PRIORITY_BATCH
            if rng.random() < config.batch_fraction
            else PRIORITY_INTERACTIVE
        )
        return index, priority

    if config.closed_loop:
        return [
            (0.0, *draw()) for _ in range(config.clients * config.requests)
        ]
    arrivals: list[tuple[float, int, str]] = []
    t = rng.expovariate(config.arrival_rate)
    while t < config.duration_s:
        arrivals.append((t, *draw()))
        t += rng.expovariate(config.arrival_rate)
    return arrivals


def _counter_total(registry, name: str) -> float:
    """Sum of one counter family across label sets."""
    total = 0.0
    for key, value in registry.snapshot()["counters"].items():
        if key == name or key.startswith(name + "{"):
            total += value
    return total


def _latency_ms(seconds: list[float]) -> dict:
    return {
        "p50": _ms(percentile(seconds, 50)),
        "p95": _ms(percentile(seconds, 95)),
        "p99": _ms(percentile(seconds, 99)),
        "max": _ms(max(seconds) if seconds else None),
    }


def _ms(seconds: Optional[float]) -> Optional[float]:
    return seconds * 1e3 if seconds is not None else None


async def run_load(
    frontdoor: AsyncFrontDoor,
    queries: Sequence[str],
    config: LoadConfig,
    **submit_kwargs,
) -> dict:
    """Offer the configured stream to *frontdoor*; returns the results
    payload once every request has resolved. Extra keyword arguments
    go to every :meth:`~AsyncFrontDoor.submit` call."""
    if not queries:
        raise ValueError("run_load needs at least one query")
    loop = asyncio.get_running_loop()
    stream = _stream(config, len(queries))
    registry = frontdoor.metrics.registry
    coalesced_before = _counter_total(
        registry, "precis_service_coalesced_total"
    )
    timeout_s = (
        config.deadline_ms / 1000.0 if config.deadline_ms is not None else None
    )
    records: list[tuple[str, str, float]] = []  # (priority, outcome, s)

    async def one(index: int, priority: str) -> None:
        t0 = loop.time()
        try:
            answer = await frontdoor.submit(
                queries[index],
                timeout_s=timeout_s,
                priority=priority,
                **submit_kwargs,
            )
        except Exception as exc:  # noqa: BLE001 — tallied, not propagated
            outcome = _SHED_OUTCOME.get(type(exc), "failed")
        else:
            outcome = "degraded" if answer.degraded else "answered"
        records.append((priority, outcome, loop.time() - t0))

    start = loop.time()
    if config.closed_loop:

        async def client(mine) -> None:
            for __, index, priority in mine:
                await one(index, priority)

        await asyncio.gather(
            *(
                client(stream[c :: config.clients])
                for c in range(config.clients)
            )
        )
    else:
        tasks: list[asyncio.Task] = []
        for offset, index, priority in stream:
            delay = (start + offset) - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            # fire and move on: an open loop never waits for completions
            tasks.append(loop.create_task(one(index, priority)))
        if tasks:
            await asyncio.gather(*tasks)
    elapsed = max(loop.time() - start, 1e-9)

    followers = (
        _counter_total(registry, "precis_service_coalesced_total")
        - coalesced_before
    )
    offered = len(stream)
    outcomes = dict.fromkeys(_OUTCOMES, 0)
    per_class: dict[str, dict] = {}
    latencies: dict[str, list[float]] = {}
    for priority, outcome, seconds in records:
        outcomes[outcome] += 1
        bucket = per_class.setdefault(
            priority,
            {"offered": 0, "answered": 0, "degraded": 0, "shed": 0,
             "failed": 0},
        )
        bucket["offered"] += 1
        if outcome in ("answered", "degraded"):
            bucket["answered"] += 1
            bucket["degraded"] += outcome == "degraded"
            latencies.setdefault(priority, []).append(seconds)
        elif outcome == "failed":
            bucket["failed"] += 1
        else:
            bucket["shed"] += 1
    for priority, values in latencies.items():
        per_class[priority]["latency_ms"] = _latency_ms(values)
    answered = outcomes["answered"] + outcomes["degraded"]
    shed = sum(v for k, v in outcomes.items() if k.startswith("shed_"))
    return {
        "loop": "closed" if config.closed_loop else "open",
        "clients": config.clients if config.closed_loop else None,
        "requests_per_client": (
            config.requests if config.closed_loop else None
        ),
        "arrival_rate": config.arrival_rate,
        "duration_s": None if config.closed_loop else config.duration_s,
        "duplicate_fraction": config.duplicate_fraction,
        "batch_fraction": config.batch_fraction,
        "deadline_ms": config.deadline_ms,
        "seed": config.seed,
        "offered": offered,
        "elapsed_s": elapsed,
        "coalesce": frontdoor.config.coalesce,
        "outcomes": outcomes,
        # user-visible answers per second of makespan, partials excluded
        "goodput_rps": outcomes["answered"] / elapsed,
        "throughput_rps": answered / elapsed,
        "shed_rate": shed / offered if offered else 0.0,
        "coalesce_hit_rate": followers / offered if offered else 0.0,
        "latency_ms": _latency_ms(
            [s for values in latencies.values() for s in values]
        ),
        "classes": per_class,
    }


def run_bench(
    engine: PrecisEngine,
    queries: Sequence[str],
    config: LoadConfig,
    workers: int = 2,
    max_pending: int = 256,
    compare_coalescing: bool = True,
    traces: Optional[TraceBuffer] = None,
    profile: bool = False,
    **submit_kwargs,
) -> dict:
    """The serving experiment: the stream through a fresh pool + front
    door with coalescing on, then (optionally) the identical stream
    against another fresh stack with coalescing off, so a gate can
    assert the goodput ratio.

    The coalesced arm carries the request-side picture: the final
    metric ``counters``, the ``slo`` snapshot, the ``inflight``/
    ``pending`` gauges after the run (0 once everything resolved),
    the trace-buffer stats when *traces* is given, and the per-stage
    ``profile`` of the statistical profiler
    (:class:`~repro.obs.profile.StackSampler`) when *profile* is set.
    """

    def arm(coalesce: bool) -> dict:
        service = PrecisService(
            engine,
            config=ServiceConfig(workers=workers),
            traces=traces if coalesce else None,
        )
        sampler = StackSampler() if profile and coalesce else None

        async def run() -> dict:
            frontdoor = AsyncFrontDoor(
                service,
                FrontDoorConfig(max_pending=max_pending, coalesce=coalesce),
            )
            try:
                return await run_load(
                    frontdoor, queries, config, **submit_kwargs
                )
            finally:
                await frontdoor.close()

        if sampler is not None:
            sampler.start()
        try:
            payload = asyncio.run(run())
        finally:
            report = sampler.stop() if sampler is not None else None
            service.close()
        metrics = service.metrics
        payload["inflight_after"] = metrics.inflight.value
        payload["pending_after"] = metrics.pending.value
        payload["counters"] = metrics.snapshot()["counters"]
        payload["slo"] = SLOTracker(metrics.registry).snapshot()
        if report is not None:
            payload["profile"] = report
        if traces is not None and coalesce:
            payload["traces"] = traces.stats()
        return payload

    started = time.perf_counter()
    payload: dict = {"workers": workers, "max_pending": max_pending}
    payload["coalesced"] = arm(coalesce=True)
    if compare_coalescing:
        payload["uncoalesced"] = arm(coalesce=False)
        baseline = payload["uncoalesced"]["goodput_rps"]
        payload["goodput_ratio"] = (
            payload["coalesced"]["goodput_rps"] / baseline
            if baseline > 0
            else float("inf")
        )
    payload["total_seconds"] = time.perf_counter() - started
    return payload


def measure_trace_overhead(
    engine: PrecisEngine,
    queries: Sequence[str],
    clients: int = 1,
    requests: int = 60,
    workers: int = 1,
    sample_rate: float = 0.1,
    rounds: int = 3,
    budget_pct: float = 5.0,
) -> dict:
    """Throughput cost of tracing: sampling on vs off, best of *rounds*.

    "Off" is a stack with no :class:`~repro.obs.context.TraceBuffer` —
    no contexts are minted and no spans built, the true untraced
    baseline. "On" traces every request (capture is always on when a
    buffer is present; *sample_rate* governs buffer admission).

    Each round builds both stacks side by side and every client asks
    each query of its round-robin share twice in a row, once per
    stack, alternating which goes first: the two sides see the same
    machine at the same moment, so a host whose speed changes every
    few seconds shifts both alike. A side's throughput is its asks
    over its share of the time. The defaults run *serial* (one client,
    one worker): that isolates the cost of the tracing code path
    itself — a multi-worker loop on a shared runner measures scheduler
    noise. The best round of each side counts; the result is gated at
    *budget_pct* by ``benchmarks/`` and recorded — with a warning, not
    a failure — by ``serve-bench``.
    """
    if rounds < 1:
        raise ValueError("rounds must be at least 1")

    async def interleaved(base, traced) -> tuple[float, float]:
        loop = asyncio.get_running_loop()
        spent = {base: 0.0, traced: 0.0}

        async def client(offset: int) -> None:
            for i in range(requests):
                query = queries[(offset + i) % len(queries)]
                # each query goes first on either side equally often
                swap = (i // len(queries)) % 2
                for frontdoor in (base, traced) if swap else (traced, base):
                    start = loop.time()
                    await frontdoor.submit(query)
                    spent[frontdoor] += loop.time() - start

        await asyncio.gather(*(client(c) for c in range(clients)))
        asks = clients * requests
        return tuple(asks * clients / spent[side] for side in (base, traced))

    def run_round() -> tuple[float, float]:
        base_pool = PrecisService(
            engine, config=ServiceConfig(workers=workers)
        )
        traced_pool = PrecisService(
            engine,
            config=ServiceConfig(workers=workers),
            traces=TraceBuffer(capacity=256, sample_rate=sample_rate),
        )

        async def run() -> tuple[float, float]:
            async with AsyncFrontDoor(base_pool) as base:
                async with AsyncFrontDoor(traced_pool) as traced:
                    return await interleaved(base, traced)

        try:
            return asyncio.run(run())
        finally:
            base_pool.close()
            traced_pool.close()

    run_round()  # warm-up: caches, lazy imports, branch predictors
    baseline_rps = traced_rps = 0.0
    for __ in range(rounds):
        base, traced = run_round()
        baseline_rps = max(baseline_rps, base)
        traced_rps = max(traced_rps, traced)
    overhead_pct = (
        (baseline_rps - traced_rps) / baseline_rps * 100.0
        if baseline_rps > 0
        else 0.0
    )
    return {
        "sample_rate": sample_rate,
        "rounds": rounds,
        "baseline_rps": baseline_rps,
        "traced_rps": traced_rps,
        "overhead_pct": overhead_pct,
        "budget_pct": budget_pct,
        "passed": overhead_pct <= budget_pct,
    }
