"""End-to-end engine latency vs database size.

Not a figure of the paper, but the question every adopter asks first:
how does ``ask()`` scale with the database? With indexes on all join
attributes and a per-relation cardinality cap, the work per query is
bounded by the *answer* size, not the database size — latency should be
near-flat across 100/400/1600-movie instances (index probes are O(1),
fetches are capped). The shape test asserts sub-linear growth.
"""

from __future__ import annotations

import pytest

from repro import MaxTuplesPerRelation, PrecisEngine, WeightThreshold
from repro.bench import stage_breakdown
from repro.datasets import generate_movies_database, movies_graph
from repro.storage import BACKEND_NAMES

SCALES = [100, 400, 1600]


@pytest.fixture(scope="module", params=BACKEND_NAMES)
def engines(request):
    out = {}
    for n in SCALES:
        db = generate_movies_database(
            n_movies=n, seed=9, backend=request.param
        )
        engine = PrecisEngine(db, graph=movies_graph())
        # a director that exists at every scale (generator is seeded,
        # but names differ per scale — pick per engine)
        name = next(
            row["DNAME"] for row in db.relation("DIRECTOR").scan(["DNAME"])
        )
        out[n] = (engine, name)
    out["backend"] = request.param
    return out


def _ask(engine, name, tracer=None):
    return engine.ask(
        f'"{name}"',
        degree=WeightThreshold(0.9),
        cardinality=MaxTuplesPerRelation(5),
        translate=False,
        tracer=tracer,
    )


@pytest.mark.parametrize("n_movies", SCALES)
def test_ask_latency(benchmark, engines, n_movies):
    benchmark.group = "end-to-end ask() vs database size (capped answer)"
    engine, name = engines[n_movies]
    answer = benchmark(_ask, engine, name)
    assert answer.found
    benchmark.extra_info["db_tuples"] = engine.db.total_tuples()
    benchmark.extra_info["backend"] = engines["backend"]
    # where the latency goes, not just how much of it there is: best-of-3
    # per-stage breakdown via the repro.obs tracer
    root = stage_breakdown(lambda t: _ask(engine, name, tracer=t))
    benchmark.extra_info["stage_ms"] = {
        stage.name: round(stage.duration_s * 1e3, 4)
        for stage in root.children
    }
    benchmark.extra_info["counters"] = root.total_counters()


def test_ask_cost_is_size_independent(benchmark, engines):
    """Modeled retrieval cost must not scale with the database: the

    answer is capped, and all access paths are indexed."""
    benchmark.group = "end-to-end ask() vs database size (capped answer)"

    benchmark.extra_info["backend"] = engines["backend"]

    def sweep():
        series = []
        for n in SCALES:
            engine, name = engines[n]
            answer = _ask(engine, name)
            cost = answer.cost.modeled_cost(engine.db.meter.params)
            series.append((engine.db.total_tuples(), cost))
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    costs = [cost for __, cost in series]
    # 16x more data must not mean 16x more cost; allow 3x slack for
    # fan-out variance between the sampled directors
    assert max(costs) <= 3 * max(min(costs), 1)
    benchmark.extra_info["series (db tuples, modeled cost)"] = series
