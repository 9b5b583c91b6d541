"""Fault-injection helpers for the serving-layer test suite.

:class:`FlakyStore` wraps a real :class:`~repro.storage.TupleStore` and
fails the first *fail_times* calls of each (selected) method with a
configurable storage error, then delegates cleanly — the shape the
retry policy is built for. :func:`make_flaky` grafts wrappers onto every
relation of a live database, so faults strike *mid-pipeline*, between
index probe and tuple fetch, exactly where a real backend hiccup would.

:class:`AfterNChecks` is the deterministic deadline used across the
deadline tests: it expires after a fixed number of ``expired()`` checks
instead of after wall time, so a sweep over *n* hits every cooperative
checkpoint of the pipeline — each stage boundary and each generator
loop iteration — without any sleeps. Expiry is monotone (once tripped,
always tripped), matching the wall-clock contract.
"""

from __future__ import annotations

import threading
from collections import Counter

from repro.core import Deadline
from repro.relational import Database
from repro.storage import TransientStorageError, TupleStore

__all__ = ["AfterNChecks", "FlakyStore", "make_flaky", "gate_reads"]


class AfterNChecks(Deadline):
    """A deadline that trips after *n* ``expired()`` checks."""

    def __init__(self, n: int):
        super().__init__(None)  # expires_at None: never shed as stale
        self.n = n
        self.calls = 0

    def expired(self) -> bool:
        self.calls += 1
        return self.calls > self.n


#: the TupleStore methods FlakyStore counts and can fail
_WRAPPED = (
    "insert",
    "update",
    "delete",
    "clear",
    "get",
    "get_many",
    "scan",
    "tids",
    "lookup",
    "lookup_in",
    "lookup_pk",
    "distinct_values",
    "create_index",
    "has_index",
    "index_on",
)


class FlakyStore(TupleStore):
    """A :class:`TupleStore` that fails the first *fail_times* calls of
    each wrapped method, then behaves like the store it wraps.

    Thread-safe: per-method call/failure counters are guarded, so the
    concurrency tests can share one flaky database across workers.
    """

    def __init__(
        self,
        inner: TupleStore,
        fail_times: int = 1,
        methods=None,
        error=TransientStorageError,
    ):
        self.inner = inner
        self.schema = inner.schema
        self.fail_times = fail_times
        self.methods = frozenset(methods) if methods is not None else None
        self.error = error
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()
        self._lock = threading.Lock()

    def _touch(self, name: str) -> None:
        with self._lock:
            self.calls[name] += 1
            injectable = self.methods is None or name in self.methods
            if injectable and self.failures[name] < self.fail_times:
                self.failures[name] += 1
                raise self.error(
                    f"injected fault: {name} failure "
                    f"#{self.failures[name]} on {self.schema.name}"
                )

    def heal(self) -> None:
        """Stop injecting faults (existing counters stand)."""
        self.fail_times = 0

    # every protocol method: count, maybe fail, delegate -----------------

    def insert(self, stored):
        self._touch("insert")
        return self.inner.insert(stored)

    def update(self, tid, stored):
        self._touch("update")
        return self.inner.update(tid, stored)

    def delete(self, tid):
        self._touch("delete")
        return self.inner.delete(tid)

    def clear(self):
        self._touch("clear")
        return self.inner.clear()

    def get(self, tid):
        self._touch("get")
        return self.inner.get(tid)

    def get_many(self, tids):
        self._touch("get_many")
        return self.inner.get_many(tids)

    def scan(self):
        self._touch("scan")
        return self.inner.scan()

    def tids(self):
        self._touch("tids")
        return self.inner.tids()

    def __len__(self):
        return len(self.inner)

    def lookup(self, attribute, value):
        self._touch("lookup")
        return self.inner.lookup(attribute, value)

    def lookup_in(self, attribute, values):
        self._touch("lookup_in")
        return self.inner.lookup_in(attribute, values)

    def lookup_pk(self, key):
        self._touch("lookup_pk")
        return self.inner.lookup_pk(key)

    def distinct_values(self, attribute):
        self._touch("distinct_values")
        return self.inner.distinct_values(attribute)

    def create_index(self, attribute, kind="hash"):
        self._touch("create_index")
        return self.inner.create_index(attribute, kind)

    def has_index(self, attribute):
        self._touch("has_index")
        return self.inner.has_index(attribute)

    def index_on(self, attribute):
        self._touch("index_on")
        return self.inner.index_on(attribute)

    @property
    def indexed_attributes(self):
        return self.inner.indexed_attributes

    def close(self):
        return self.inner.close()


def make_flaky(
    db: Database,
    fail_times: int = 1,
    methods=None,
    error=TransientStorageError,
    relations=None,
) -> dict[str, FlakyStore]:
    """Wrap the store of each relation of *db* in a :class:`FlakyStore`.

    Returns the wrappers by relation name so tests can inspect counters
    or :meth:`FlakyStore.heal` them mid-test. Wrapping is in place: the
    database serves faults immediately.
    """
    wrappers: dict[str, FlakyStore] = {}
    for name in db.schema.relation_names:
        if relations is not None and name not in relations:
            continue
        relation = db.relation(name)
        wrapper = FlakyStore(
            relation.store, fail_times=fail_times, methods=methods, error=error
        )
        relation.store = wrapper
        wrappers[name] = wrapper
    return wrappers


class _GatedStore(FlakyStore):
    """A fault-free wrapper whose tuple reads park on an event."""

    def __init__(self, inner: TupleStore, gate, entered):
        super().__init__(inner, fail_times=0)
        self.gate = gate
        self.entered = entered

    def get_many(self, tids):
        self.entered.set()
        assert self.gate.wait(timeout=30), "gate never opened"
        return self.inner.get_many(tids)


def gate_reads(db: Database, gate: threading.Event) -> threading.Event:
    """Park every tuple read of *db* on *gate* (until it is set).

    Returns an event set as soon as some thread reaches a read — an ask
    is then executing, deterministically, wherever it came from (the
    HTTP edge cannot carry a :class:`GateDeadline`)."""
    entered = threading.Event()
    for name in db.schema.relation_names:
        relation = db.relation(name)
        relation.store = _GatedStore(relation.store, gate, entered)
    return entered
