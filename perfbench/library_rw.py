"""The ``library-rw`` program: embedded library use, one thread.

Run from the repository root by ``run.py``::

    python perfbench/library_rw.py DATA_DIR SEED SECONDS [SPANS.json]

Builds the engine ``repro serve`` builds over the generated directory,
with its answer and plan caches on, plus a ``SynchronizedWriter``,
prints ``ready`` (the end of set-up), then replays the seeded block of
operations (``workloads.library_ops``) closed loop: once untimed, then
for SECONDS. The block leaves the database as it found it, so every
replay is the same work; each operation's time is the best it took
over the replays. Afterwards it checks sampled cached answers against a
fresh engine and index over the database, and prints one JSON line of
raw results. With SECONDS = 0 it exits after ``ready``. With SPANS.json
it records spans around every layer and writes them there.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path

import tracing
from measure import proc_cpu_ms, proc_peak_rss_mb
from workloads import library_ops, vocabulary

HERE = Path(__file__).resolve().parent

CHECK_SAMPLES = 40


def answer_bytes(engine, query: str, per_relation) -> bytes:
    """One answer exactly as ``/ask`` encodes it."""
    from repro.core import MaxTuplesPerRelation

    kwargs = {}
    if per_relation is not None:
        kwargs["cardinality"] = MaxTuplesPerRelation(per_relation)
    answer = engine.ask(query, **kwargs)
    return json.dumps(answer.to_dict(), sort_keys=True).encode("utf-8")


def main(argv) -> int:
    data_dir, seed, seconds = Path(argv[0]), int(argv[1]), float(argv[2])
    spans_out = argv[3] if len(argv) > 3 else None
    rec = None
    if spans_out:
        rec = tracing.Recorder()
        tracing.install(rec, served=False)

    from repro.cli import _load_engine
    from repro.core import MaxTuplesPerRelation
    from repro.text.maintenance import SynchronizedWriter

    engine = _load_engine(str(data_dir), cache=True)
    writer = SynchronizedWriter(engine.db, engine.index)
    print("ready", flush=True)
    if seconds <= 0:
        return 0

    block = library_ops(vocabulary(data_dir), seed)
    limits = {}

    def limit(k):
        if k not in limits:
            limits[k] = MaxTuplesPerRelation(k)
        return limits[k]

    def write(call):
        """One writer call; returns its time in ms (key lookup excluded)."""
        verb, relation = call[0], call[1]
        if verb == "insert":
            start = time.perf_counter()
            writer.insert(relation, call[2])
        elif verb == "update":
            tid = engine.db.relation(relation).lookup_pk(call[2])
            start = time.perf_counter()
            writer.update(relation, tid, call[3])
        else:
            tid = engine.db.relation(relation).lookup_pk(tuple(call[2]))
            start = time.perf_counter()
            writer.delete(relation, tid)
        return (time.perf_counter() - start) * 1e3

    def run(op):
        if op[0] == "ask":
            engine.ask(op[1], cardinality=limit(op[2]))
            return ()
        return [write(call) for call in op[2]]

    def traced(op):
        span = rec.open(f"op.{op[0]}", None)
        token = rec.current.set(span)
        try:
            return run(op)
        finally:
            span[tracing.END] = time.monotonic_ns()
            rec.current.reset(token)

    step = traced if rec is not None else run
    if rec is not None:
        rec.arm()
    for op in block:
        step(op)

    # best time of each position of the block (and of each writer call)
    wall = [math.inf] * len(block)
    cpu = [math.inf] * len(block)
    calls = {i: [math.inf] * len(op[2]) for i, op in enumerate(block)
             if op[0] == "write"}
    done, reached = 0, 0
    planned_calls = {"insert": 0, "update": 0, "delete": 0}
    pid = os.getpid()
    cpu0, t0_ns = proc_cpu_ms(pid), time.monotonic_ns()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        for i, op in enumerate(block):
            w0, c0 = time.perf_counter(), time.process_time()
            written = step(op)
            c1, w1 = time.process_time(), time.perf_counter()
            wall[i] = min(wall[i], (w1 - w0) * 1e3)
            cpu[i] = min(cpu[i], (c1 - c0) * 1e3)
            for j, ms in enumerate(written):
                calls[i][j] = min(calls[i][j], ms)
                planned_calls[op[2][j][0]] += 1
            done += 1
            reached = max(reached, i + 1)
            if w1 >= deadline:
                break
    t1_ns, cpu1 = time.monotonic_ns(), proc_cpu_ms(pid)
    if rec is not None:
        rec.armed = False

    # coherence: the last distinct asks run, served by the cached
    # engine, against a fresh engine and index over the mutated data
    stop = done % len(block) or len(block)
    asked = [(op[1], op[2]) for op in block[:stop] if op[0] == "ask"]
    recent = list(dict.fromkeys(reversed(asked)))[:CHECK_SAMPLES]
    hits_before = engine.cache_stats()["answers"]["hits"]
    cached = [answer_bytes(engine, *ask) for ask in recent]
    cache_hits = engine.cache_stats()["answers"]["hits"] - hits_before
    from repro.core.engine import PrecisEngine

    fresh = PrecisEngine(
        engine.db, graph=engine.graph, translator=engine.translator
    )
    mismatches = sum(
        body != answer_bytes(fresh, *ask) for body, ask in zip(cached, recent)
    )
    if rec is not None:
        rec.dump(spans_out)
    print(json.dumps({
        "ops": done,
        "block_ops": len(block),
        "replays": done / len(block),
        "ask_ms": [wall[i] for i, op in enumerate(block[:reached])
                   if op[0] == "ask"],
        "write_ms": [ms for i in calls if i < reached for ms in calls[i]],
        "best_wall_ms_per_op": math.fsum(wall[:reached]) / reached,
        "best_cpu_ms_per_op": math.fsum(cpu[:reached]) / reached,
        "write_calls": planned_calls,
        "window_s": (t1_ns - t0_ns) / 1e9,
        "t0_ns": t0_ns,
        "t1_ns": t1_ns,
        "cpu_ms": cpu1 - cpu0,
        "rss_mb": proc_peak_rss_mb(pid),
        "checked": len(recent),
        "check_cache_hits": cache_hits,
        "mismatches": mismatches,
    }))
    return 0


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    sys.exit(main(sys.argv[1:]))
