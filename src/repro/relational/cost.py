"""Cost accounting for the engine — the substrate for the paper's Formula (2).

The paper models the Result Database Generator's cost as::

    Cost(D') = sum_i card(R'_i) * (IndexTime + TupleTime)        (1)
             = c_R * n_R * (IndexTime + TupleTime)               (2)

where ``IndexTime`` is the time to find a tuple id from an index given a
value, and ``TupleTime`` is the time to read a tuple given its id. Our
engine charges exactly those two unit operations to a :class:`CostMeter`,
so the modeled cost of any run is directly observable and Formula (2) can
be validated analytically as well as by wall clock.

The meter is deliberately *not* global: every :class:`~repro.relational.
database.Database` owns one, and scopes can be nested via
:meth:`CostMeter.measure`. Each thread charges its own counters, so a
measurement sees exactly the reads of the thread that opened it — two
asks running at once on two workers each report their own cost — while
the meter's totals add up every thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["CostParameters", "CostMeter", "CostSnapshot"]


@dataclass(frozen=True)
class CostParameters:
    """Abstract unit costs (the paper's ``IndexTime`` and ``TupleTime``).

    The defaults are arbitrary but fixed; only their sum matters for the
    shape of Formula (2). ``scan_time`` prices a full-scan step (per tuple
    visited without an index) — the paper assumes indexes on all join
    attributes, so scans only show up when that assumption is violated.
    """

    index_time: float = 1.0
    tuple_time: float = 2.0
    scan_time: float = 0.5

    @property
    def unit_fetch(self) -> float:
        """Cost of one indexed tuple retrieval: IndexTime + TupleTime."""
        return self.index_time + self.tuple_time


@dataclass
class CostSnapshot:
    """Immutable-ish view of counter values at one point in time."""

    index_lookups: int = 0
    tuple_reads: int = 0
    scan_steps: int = 0

    def __sub__(self, other: "CostSnapshot") -> "CostSnapshot":
        return CostSnapshot(
            self.index_lookups - other.index_lookups,
            self.tuple_reads - other.tuple_reads,
            self.scan_steps - other.scan_steps,
        )

    def modeled_cost(self, params: CostParameters) -> float:
        """Total modeled cost in abstract time units."""
        return (
            self.index_lookups * params.index_time
            + self.tuple_reads * params.tuple_time
            + self.scan_steps * params.scan_time
        )


class CostMeter:
    """Mutable accumulator of unit operations performed by the engine.

    Charges land in the calling thread's own counters; :meth:`snapshot`
    and the ``index_lookups``/``tuple_reads``/``scan_steps`` totals sum
    every thread, while :meth:`measure` scopes to the calling thread.
    """

    def __init__(self, params: CostParameters | None = None):
        self.params = params or CostParameters()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: one [index_lookups, tuple_reads, scan_steps] per charging thread
        self._counts: list[list[int]] = []

    def _mine(self) -> list[int]:
        """The calling thread's counters (created on first charge)."""
        try:
            return self._local.counts
        except AttributeError:
            counts = self._local.counts = [0, 0, 0]
            with self._lock:
                self._counts.append(counts)
            return counts

    # -- charging (called by the engine) -----------------------------------

    def charge_index_lookup(self, count: int = 1) -> None:
        self._mine()[0] += count

    def charge_tuple_read(self, count: int = 1) -> None:
        self._mine()[1] += count

    def charge_scan_step(self, count: int = 1) -> None:
        self._mine()[2] += count

    # -- reading ------------------------------------------------------------

    def _total(self, slot: int) -> int:
        with self._lock:
            return sum(counts[slot] for counts in self._counts)

    @property
    def index_lookups(self) -> int:
        return self._total(0)

    @property
    def tuple_reads(self) -> int:
        return self._total(1)

    @property
    def scan_steps(self) -> int:
        return self._total(2)

    def snapshot(self) -> CostSnapshot:
        """Totals over every thread."""
        with self._lock:
            return CostSnapshot(*map(sum, zip([0, 0, 0], *self._counts)))

    def modeled_cost(self) -> float:
        return self.snapshot().modeled_cost(self.params)

    def reset(self) -> None:
        with self._lock:
            for counts in self._counts:
                counts[:] = [0, 0, 0]

    def measure(self) -> "_Measurement":
        """Context manager yielding the delta the calling thread
        accumulated inside the block.

        >>> meter = CostMeter()
        >>> with meter.measure() as m:
        ...     meter.charge_tuple_read(3)
        >>> m.delta.tuple_reads
        3
        """
        return _Measurement(self)

    def __repr__(self):
        total = self.snapshot()
        return (
            f"CostMeter(index_lookups={total.index_lookups}, "
            f"tuple_reads={total.tuple_reads}, scan_steps={total.scan_steps})"
        )


class _Measurement:
    """Result object of :meth:`CostMeter.measure`."""

    def __init__(self, meter: CostMeter):
        self._meter = meter
        self._start: CostSnapshot | None = None
        self.delta: CostSnapshot = CostSnapshot()

    def __enter__(self) -> "_Measurement":
        self._start = CostSnapshot(*self._meter._mine())
        return self

    def __exit__(self, exc_type, exc, tb):
        assert self._start is not None
        self.delta = CostSnapshot(*self._meter._mine()) - self._start
        return False

    @property
    def modeled_cost(self) -> float:
        return self.delta.modeled_cost(self._meter.params)
