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
* the worker pool underneath (:mod:`repro.service.service`), which
  the front door builds, owns and closes: threads over one engine and
  retry-with-backoff over the storage layer's transient/permanent
  fault classification. The pool records nothing: the front door
  counts every execution and builds every request's trace.

How a request ended is one vocabulary (:mod:`repro.service.errors`):
each shed error is a :class:`Shed` naming its reason, and
:func:`~repro.service.errors.outcome` maps an answer or an error onto
:data:`~repro.service.errors.OUTCOMES` for the traces and for any
harness that tallies outcomes.

The stdlib HTTP endpoint (:mod:`repro.service.http`, ``repro serve``)
serves the front door over the wire.

See ``docs/service.md``.
"""

from ..core.deadline import NO_DEADLINE, Deadline
from .errors import (
    QueueFull,
    RetryExhausted,
    ServiceClosed,
    ServiceError,
    Shed,
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
from .retry import RetryPolicy, call_with_retry

__all__ = [
    "Deadline",
    "NO_DEADLINE",
    "AsyncFrontDoor",
    "FrontDoorConfig",
    "FrontDoorHTTP",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_BATCH",
    "RetryPolicy",
    "call_with_retry",
    "ServiceError",
    "Shed",
    "ServiceClosed",
    "QueueFull",
    "StaleRequest",
    "TenantQuotaExceeded",
    "RetryExhausted",
]
