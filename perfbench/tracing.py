"""Span recording around each layer's entry points, from outside ``src/``.

:func:`install` wraps the public entry points of every layer (plus the
few private hooks that carry a request across the front door's
dispatcher task and the service's worker thread) and records one span
per call: ``[id, parent id, request id, name, start ns, end ns, info]``.
Spans stay in memory and are written once, at shutdown.

Run as a script it is the traced launcher of the served workloads::

    python perfbench/tracing.py SPANS.json serve DIR --port 0 ...

which installs the wrappers, runs ``repro.cli.main`` with the remaining
arguments, and writes the spans to ``SPANS.json`` when the server stops.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import time
from pathlib import Path

#: wrapped entry point -> workloads designed to exercise it. A traced
#: run fails when one of its own entry points recorded no call.
EXPECTED = {
    "http.handle": ("serve-hot", "serve-cold"),
    "frontdoor.submit": ("serve-hot", "serve-cold"),
    "frontdoor.admit": ("serve-hot", "serve-cold"),
    "frontdoor.execute": ("serve-hot", "serve-cold"),
    "service.submit": ("serve-hot", "serve-cold"),
    "service.serve": ("serve-hot", "serve-cold"),
    "engine.ask": ("serve-hot", "serve-cold", "library-rw"),
    "text.match": ("serve-hot", "serve-cold", "library-rw"),
    "schema_generator": ("serve-hot", "serve-cold", "library-rw"),
    "database_generator": ("serve-hot", "serve-cold", "library-rw"),
    "translator": ("serve-hot", "serve-cold", "library-rw"),
    "relational.fetch_many": ("serve-hot", "serve-cold", "library-rw"),
    "relational.insert": ("serve-hot", "serve-cold", "library-rw"),
    "relational.update": ("library-rw",),
    "relational.delete": ("library-rw",),
    "maintenance.insert": ("library-rw",),
    "maintenance.update": ("library-rw",),
    "maintenance.delete": ("library-rw",),
    "text.index_add": ("library-rw",),
    "text.index_remove": ("library-rw",),
}

# span fields
ID, PARENT, RID, NAME, START, END, INFO = range(7)
CURRENT = object()


class Recorder:
    """In-memory span store. Recording starts at :meth:`arm`, so data
    loading and index building at start-up leave no spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.armed = False
        self.current = contextvars.ContextVar("perfbench_span", default=None)
        self._ids = itertools.count(1)

    def arm(self) -> None:
        self.armed = True

    def open(self, name: str, parent=CURRENT) -> list:
        """Start a span under *parent* (default: the context's current
        span; None makes a request root)."""
        if parent is CURRENT:
            parent = self.current.get()
        sid = next(self._ids)
        span = [
            sid,
            parent[ID] if parent is not None else 0,
            parent[RID] if parent is not None else sid,
            name,
            time.monotonic_ns(),
            0,
            None,
        ]
        self.spans.append(span)
        return span

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.spans, separators=(",", ":")))


def _wrap(rec, owner, attr, name, info=None, parent_of=None,
          thread_cpu=False):
    """Replace ``owner.attr`` by a span-recording wrapper. *info*
    (span, args, result) annotates the span; *parent_of* (args) names
    the parent span when the caller's context does not; *thread_cpu*
    adds the calling thread's CPU time (``cpu_ns``)."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not rec.armed:
            return original(*args, **kwargs)
        span = rec.open(name, parent_of(args) if parent_of else CURRENT)
        token = rec.current.set(span)
        cpu = time.thread_time_ns() if thread_cpu else 0
        try:
            result = original(*args, **kwargs)
        finally:
            span[END] = time.monotonic_ns()
            rec.current.reset(token)
        if info is not None:
            info(span, args, result)
        if thread_cpu:
            span[INFO] = dict(span[INFO] or {}, cpu_ns=time.thread_time_ns() - cpu)
        return result

    setattr(owner, attr, wrapper)


def _wrap_async(rec, owner, attr, name, parent_of=None, on_error=None):
    original = getattr(owner, attr)

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        if not rec.armed:
            return await original(*args, **kwargs)
        span = rec.open(name, parent_of(args) if parent_of else CURRENT)
        token = rec.current.set(span)
        try:
            return await original(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(span, exc)
            raise
        finally:
            span[END] = time.monotonic_ns()
            rec.current.reset(token)

    setattr(owner, attr, wrapper)


def install(rec: Recorder, served: bool) -> None:
    """Wrap every layer's entry points (the serving layers too when
    *served*)."""
    import repro.core.engine as engine_mod
    from repro.core.engine import PrecisEngine
    from repro.nlg.translator import Translator
    from repro.relational.relation import Relation
    from repro.text.inverted_index import InvertedIndex
    from repro.text.maintenance import SynchronizedWriter

    if served:
        _install_serving(rec)

    def ask_info(span, args, answer):
        # the cache's own counters, read past the engine's cache_stats()
        # so that the benchmark adds no call of the program's API
        span[INFO] = {
            "tuples": answer.total_tuples(),
            "cache": args[0].cache.stats() if args[0].cache else None,
        }

    def set_info(key, value):
        def info(span, args, result):
            span[INFO] = {key: value(result)}
        return info

    _wrap(rec, PrecisEngine, "ask", "engine.ask", ask_info)
    # the engine binds its stage functions at import: wrap those names
    _wrap(
        rec, engine_mod, "match_tokens", "text.match",
        set_info("seed_tids", lambda matches: sum(
            len(o.tids) for m in matches for o in m.occurrences
        )),
    )
    _wrap(rec, engine_mod, "generate_result_schema", "schema_generator")
    _wrap(
        rec, engine_mod, "generate_result_database", "database_generator",
        set_info("tuples", lambda result: result[0].total_tuples()),
        thread_cpu=True,
    )
    _wrap(
        rec, Translator, "translate", "translator",
        set_info("bytes", lambda text: len((text or "").encode("utf-8"))),
        thread_cpu=True,
    )
    _wrap(
        rec, Relation, "fetch_many", "relational.fetch_many",
        set_info("rows", len),
    )
    for verb in ("insert", "update", "delete"):
        _wrap(rec, Relation, verb, f"relational.{verb}")
        _wrap(rec, SynchronizedWriter, verb, f"maintenance.{verb}")
    _wrap(rec, InvertedIndex, "add_value", "text.index_add")
    _wrap(rec, InvertedIndex, "remove_value", "text.index_remove")


def _install_serving(rec: Recorder) -> None:
    from repro.service import errors
    from repro.service.frontdoor import AsyncFrontDoor
    from repro.service.http import FrontDoorHTTP
    from repro.service.service import PrecisService

    sheds = (
        errors.QueueFull,
        errors.StaleRequest,
        errors.ServiceClosed,
        errors.TenantQuotaExceeded,
    )

    def mark_shed(span, exc):
        if isinstance(exc, sheds):
            span[INFO] = {"shed": 1}

    original_start = FrontDoorHTTP.start

    @functools.wraps(original_start)
    async def start(self):
        # recording starts once the server listens: loading the data
        # and building the index leave no spans
        bound = await original_start(self)
        rec.arm()
        return bound

    FrontDoorHTTP.start = start
    # a request root: its id is the request id of every span below
    _wrap_async(rec, FrontDoorHTTP, "_handle", "http.handle",
                parent_of=lambda args: None)
    _wrap_async(rec, AsyncFrontDoor, "submit", "frontdoor.submit",
                on_error=mark_shed)

    # A flight runs in a dispatcher task, and a request in a worker
    # thread, outside the submitting request's context: hand the parent
    # span over by object identity (flights have __slots__).
    owner_of = {}

    def admitted(span, args, flight):
        # the leader's submit span owns the flight's execution
        owner_of[id(flight)] = rec.current.get()

    def submitted(span, args, future):
        owner_of[id(future)] = span

    _wrap(rec, AsyncFrontDoor, "_admit", "frontdoor.admit", admitted)
    _wrap_async(
        rec, AsyncFrontDoor, "_execute", "frontdoor.execute",
        parent_of=lambda args: owner_of.pop(id(args[1]), None),
    )
    _wrap(rec, PrecisService, "submit", "service.submit", submitted)
    _wrap(
        rec, PrecisService, "_serve", "service.serve",
        parent_of=lambda args: owner_of.pop(id(args[2].future), None),
    )


def main(argv) -> int:
    """Traced launcher: ``tracing.py SPANS.json <repro cli args...>``."""
    from repro.cli import main as repro_main

    spans_out, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec, served=True)
    try:
        return repro_main(cli_args)
    finally:
        rec.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
