"""repro.service — the concurrent serving layer.

Turns the single-threaded :class:`~repro.core.engine.PrecisEngine` into
a servable component in two pieces:

* the asyncio front door (:mod:`repro.service.frontdoor`), the one
  admission layer: per-request deadlines
  (:class:`~repro.core.deadline.Deadline`, re-exported here) that shed
  stale work and degrade the rest cooperatively, request coalescing
  keyed by the answer-cache signature (weight fingerprint included),
  interactive/batch priority classes with earliest-deadline-first
  dispatch and batch preemption, per-tenant quotas, and every shed
  decision, counted on one metrics façade shared with the
  :mod:`repro.obs` registry;
* the worker pool underneath (:class:`PrecisService`): threads over
  engine replicas, retry-with-backoff over the storage layer's
  transient/permanent fault classification, and the per-request span
  tree.

The stdlib HTTP endpoint (:mod:`repro.service.http`, ``repro serve``)
serves the front door over the wire, and one load generator
(:mod:`repro.service.loadgen`, ``repro serve-bench``) drives it closed
or open loop.

See ``docs/service.md``.
"""

from ..core.deadline import NO_DEADLINE, Deadline
from .errors import (
    QueueFull,
    RetryExhausted,
    ServiceClosed,
    ServiceError,
    StaleRequest,
    TenantQuotaExceeded,
)
from .frontdoor import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    AsyncFrontDoor,
    FrontDoorConfig,
)
from .http import FrontDoorHTTP
from .loadgen import (
    LoadConfig,
    measure_trace_overhead,
    movies_workload,
    percentile,
    run_bench,
    run_load,
)
from .retry import RetryPolicy, call_with_retry
from .service import PrecisService, ServiceConfig

__all__ = [
    "Deadline",
    "NO_DEADLINE",
    "PrecisService",
    "ServiceConfig",
    "AsyncFrontDoor",
    "FrontDoorConfig",
    "FrontDoorHTTP",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_BATCH",
    "LoadConfig",
    "run_load",
    "run_bench",
    "RetryPolicy",
    "call_with_retry",
    "ServiceError",
    "ServiceClosed",
    "QueueFull",
    "StaleRequest",
    "TenantQuotaExceeded",
    "RetryExhausted",
    "movies_workload",
    "percentile",
    "measure_trace_overhead",
]
