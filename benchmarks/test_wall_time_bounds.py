"""Wall-time bounds that depend on how fast the machine is.

Speed claims, so they live here and not in tier-1, which checks the
deterministic half of each: ``tests/integration/test_scale.py`` (the
2,000-movie query's modeled cost is capped by its answer),
``tests/core/test_schema_generator.py`` (the 100-relation graph plans
the full top-50 projection) and ``tests/bench_support/
test_measurement.py`` (``time_call`` keeps the best of its runs, read
off a fake clock). The thresholds are the ones those tests used to
assert, unchanged.
"""

from __future__ import annotations

import time

from repro import MaxTuplesPerRelation, PrecisEngine, WeightThreshold
from repro.bench import random_schema_graph, time_call
from repro.core import TopRProjections, generate_result_schema
from repro.datasets import generate_movies_database, movies_graph


def test_query_latency_bounded():
    """One capped ask over 2,000 movies: under 2 s (typically ~2 ms)."""
    db = generate_movies_database(n_movies=2000, seed=99)
    engine = PrecisEngine(db, graph=movies_graph())
    name = next(row["DNAME"] for row in db.relation("DIRECTOR").scan(["DNAME"]))
    start = time.perf_counter()
    answer = engine.ask(
        f'"{name}"',
        degree=WeightThreshold(0.9),
        cardinality=MaxTuplesPerRelation(10),
    )
    elapsed = time.perf_counter() - start
    assert answer.found
    assert elapsed < 2.0


def test_large_graph_generates_quickly():
    """A 100-relation, 800-attribute graph plans in under a second
    (Figure 7's 'negligible' claim at scale)."""
    big = random_schema_graph(
        n_relations=100, attrs_per_relation=8, extra_joins=80, seed=0
    )
    start = time.perf_counter()
    schema = generate_result_schema(
        big, [big.relations[0]], TopRProjections(50)
    )
    elapsed = time.perf_counter() - start
    assert len(schema.projected_attributes) == 50
    assert elapsed < 1.0


def test_time_call_of_a_small_loop_is_fast():
    elapsed = time_call(lambda: sum(range(1000)), repeat=2)
    assert 0 < elapsed < 1.0
