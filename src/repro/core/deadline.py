"""Cooperative per-request deadlines for the précis pipeline.

A production precis service cannot let one slow query — a deep schema
traversal plus transitive joins — stall its caller indefinitely. A
:class:`Deadline` is the budget object the serving layer
(:mod:`repro.service`) threads through
:meth:`~repro.core.engine.PrecisEngine.ask` into the schema generator's
best-first loop and the database generator's join loop. The generators
check it **cooperatively at iteration boundaries**: an expired deadline
stops traversal exactly like a degree/cardinality constraint would, so
the caller always receives a *valid, partial* answer — flagged
:attr:`~repro.core.answer.PrecisAnswer.degraded`, with the stage that
tripped recorded in EXPLAIN provenance — never an exception and never a
half-built object.

The clock is injectable (any zero-argument callable returning seconds,
monotonic by convention) so tests can drive expiry deterministically;
:data:`NO_DEADLINE` is the shared never-expiring default every
instrumented call site falls back to, keeping the deadline-free hot
path to a single attribute check.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

__all__ = ["Deadline", "NO_DEADLINE"]


class Deadline:
    """A point on a (monotonic) clock after which work should stop.

    >>> deadline = Deadline.after(0.050)   # 50 ms from now
    >>> deadline.expired()
    False
    >>> Deadline.never().expired()
    False

    Subclassable on purpose: the test suite injects deadlines that trip
    after a fixed number of :meth:`expired` checks to hit every pipeline
    stage deterministically.
    """

    def __init__(
        self,
        expires_at: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ):
        """*expires_at* is a timestamp on *clock*'s axis; ``None`` (or
        ``inf``) never expires. NaN is rejected: it would never expire,
        yet report no time remaining."""
        if expires_at is not None and math.isnan(expires_at):
            raise ValueError("a deadline cannot be NaN")
        self.expires_at = expires_at
        self.clock = clock

    # ------------------------------------------------------------ builders

    @classmethod
    def after(
        cls, seconds: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        """A deadline *seconds* from now (negative = already expired,
        ``inf`` = never expires, NaN = :class:`ValueError`)."""
        return cls(clock() + seconds, clock)

    @classmethod
    def never(cls) -> "Deadline":
        """A deadline that never expires (see also :data:`NO_DEADLINE`)."""
        return cls(None)

    # ------------------------------------------------------------- queries

    def expires(self) -> bool:
        """Whether this deadline can expire at all."""
        return self.expires_at is not None

    def expired(self) -> bool:
        """True iff the budget is spent. The pipeline's cooperative
        check — called at iteration boundaries, so keep it cheap."""
        return self.expires_at is not None and self.clock() >= self.expires_at

    def remaining(self) -> float:
        """Seconds left (``inf`` for a never-expiring deadline, clamped
        at 0.0 once expired)."""
        if self.expires_at is None:
            return float("inf")
        return max(0.0, self.expires_at - self.clock())

    def __repr__(self):
        if self.expires_at is None:
            return "Deadline(never)"
        return f"Deadline(remaining={self.remaining():.6g}s)"


#: the shared never-expiring default — every deadline-aware call site
#: falls back to this, so deadline-free runs cost one attribute check
NO_DEADLINE = Deadline(None)
