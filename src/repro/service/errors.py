"""The serving layer's exception and outcome vocabulary.

Admission-control refusals (:class:`QueueFull`, :class:`StaleRequest`,
:class:`TenantQuotaExceeded`, :class:`ServiceClosed`) are
*load-shedding signals* decided by the front door
(:mod:`repro.service.frontdoor`): the request never ran, the caller may
retry elsewhere or give up. Each is a :class:`Shed` whose class-level
:attr:`~Shed.reason` names it in traces and in the caller's tally.
:class:`RetryExhausted` is different — the request ran, hit transient
storage failures (:class:`~repro.storage.TransientStorageError`), and
the retry budget ran out; the last underlying error rides along as
``__cause__`` and :attr:`RetryExhausted.last_error`.

How a served request ended is one of :data:`OUTCOMES`, and
:func:`outcome` is the one place that says which: the pool's and the
front door's traces and the tally of ``benchmarks/loadgen.py`` call it.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ServiceError",
    "Shed",
    "ServiceClosed",
    "QueueFull",
    "StaleRequest",
    "TenantQuotaExceeded",
    "RetryExhausted",
    "OUTCOMES",
    "outcome",
]


class ServiceError(Exception):
    """Base class for every serving-layer failure."""


class Shed(ServiceError):
    """A request the front door refused: nothing ran for it."""

    #: the shed's name in traces and tallies (``shed_<reason>``)
    reason: str = ""


class ServiceClosed(Shed):
    """The service was shut down before (or while) the request was
    submitted; nothing ran."""

    reason = "closed"


class QueueFull(Shed):
    """Shed on admission: the front door's pending queue was full
    (overload), or a queued batch flight was preempted by an
    interactive arrival."""

    reason = "full"

    def __init__(self, depth: int):
        super().__init__(f"admission queue full ({depth} waiting)")
        self.depth = depth


class StaleRequest(Shed):
    """Shed before running: the request's deadline had expired at
    submit or while it sat in the queue (or, for a coalesced follower,
    while it waited on the leader), so running it could only produce an
    empty degraded answer — cheaper to refuse outright."""

    reason = "stale"

    def __init__(self, waited_s: float):
        super().__init__(
            f"deadline expired after {waited_s * 1000:.1f} ms in queue"
        )
        self.waited_s = waited_s


class TenantQuotaExceeded(Shed):
    """Shed at dispatch: this tenant's flights already hold its fair
    share of execution slots (``FrontDoorConfig.tenant_slots``); other
    tenants' capacity is untouched. A per-tenant signal — the queue
    itself may be nearly empty."""

    reason = "tenant_quota"

    def __init__(self, tenant: str, slots: int):
        super().__init__(
            f"tenant {tenant!r} already has {slots} request(s) in flight"
        )
        self.tenant = tenant
        self.slots = slots


class RetryExhausted(ServiceError):
    """Transient storage failures persisted past the retry budget."""

    def __init__(self, attempts: int, last_error: Optional[BaseException]):
        super().__init__(
            f"storage still failing after {attempts} attempt(s): {last_error}"
        )
        self.attempts = attempts
        self.last_error = last_error


#: every way a served request can end, in the order tallies list them
OUTCOMES = (
    "answered",
    "degraded",
    "shed_stale",
    "shed_full",
    "shed_tenant_quota",
    "shed_closed",
    "failed",
)


def outcome(answer, error: Optional[BaseException] = None) -> str:
    """How one request ended: ``shed_<reason>`` when *error* is a
    :class:`Shed`, ``failed`` for any other error, otherwise
    ``degraded`` or ``answered`` by *answer*'s flag."""
    if error is not None:
        return f"shed_{error.reason}" if isinstance(error, Shed) else "failed"
    return "degraded" if answer.degraded else "answered"
