"""The RoundRobin access path of the Result Database Generator.

The generator never executes actual joins: it fetches tuples of one
relation whose join attribute takes values drawn from already-retrieved
tuples of another (paper §5.2, the queries ``σ_Ids(R_j)[π(R_j)]``).
NaïveQ issues those as one IN-list probe (``Relation.lookup_in``) and
keeps an arbitrary prefix of ``Relation.fetch_many``;
:class:`RoundRobinScans` keeps one open scan of joining tuples per
driving value, consumed one tuple per scan per round (**RoundRobin**).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from .relation import Relation
from .row import Row

__all__ = ["RoundRobinScans"]


class RoundRobinScans:
    """The paper's RoundRobin retrieval strategy (§5.2).

    For each driving value (a join-attribute value found in the
    already-retrieved tuples of the source relation) a scan of joining
    tuples is opened in the target relation. Each round retrieves at most
    one tuple per open scan, as long as the budget holds; exhausted scans
    close. This spreads the retrieved tuples evenly over the driving
    tuples, so no driving tuple is left joinless while others hoard the
    budget.

    >>> # scans over values [1, 2] with budget 3 returns 2 tuples for
    >>> # value 1 and 1 for value 2 only if value 2 runs out first.
    """

    def __init__(
        self,
        relation: Relation,
        attribute: str,
        driving_values: Iterable[Any],
        attributes: Optional[Sequence[str]] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ):
        """*should_stop* is an optional zero-argument callable polled
        periodically while the per-value scans open (one index probe per
        driving value — the only unbounded work here). Returning True
        stops opening further scans; the scans opened so far behave
        normally. The engine passes a deadline check through it without
        this layer knowing what a deadline is."""
        self.relation = relation
        self.attribute = attribute
        self.attributes = attributes
        # One ordered queue of matching tids per distinct driving value.
        # dict.fromkeys preserves first-seen order while deduplicating.
        self._queues: list[list[int]] = []
        for i, value in enumerate(dict.fromkeys(driving_values)):
            if should_stop is not None and i % 256 == 0 and i and should_stop():
                break
            tids = sorted(relation.lookup(attribute, value))
            if tids:
                # reversed so .pop() yields ascending-tid order
                self._queues.append(list(reversed(tids)))
        self._cursor = 0

    @property
    def open_scans(self) -> int:
        return len(self._queues)

    def exhausted(self) -> bool:
        return not self._queues

    def next_tuple(self) -> Optional[Row]:
        """Retrieve one tuple from the next open scan, round-robin.

        Each call charges one scan step on top of the tuple read: the
        paper's RoundRobin issues one cursor advance per tuple (rather
        than one batched IN-list query), and that per-fetch overhead is
        what makes it measurably slower than NaïveQ in Figure 9.
        """
        if not self._queues:
            return None
        self.relation.meter.charge_scan_step()
        if self._cursor >= len(self._queues):
            self._cursor = 0
        queue = self._queues[self._cursor]
        tid = queue.pop()
        if queue:
            self._cursor += 1
        else:
            del self._queues[self._cursor]
        return self.relation.fetch(tid, self.attributes)

    def take(self, budget: Optional[int]) -> list[Row]:
        """Retrieve up to *budget* tuples (all matches if None).

        Duplicate tids across driving values (possible when two driving
        values hash to overlapping tid sets — cannot happen for equality
        probes, but kept safe) are filtered out.
        """
        out: list[Row] = []
        seen: set[int] = set()
        while not self.exhausted():
            if budget is not None and len(out) >= budget:
                break
            row = self.next_tuple()
            if row is not None and row.tid not in seen:
                seen.add(row.tid)
                out.append(row)
        return out
