"""Ablation — join execution order: heaviest-first vs FIFO (§5.2).

The paper orders joins by decreasing weight so that "relations in D'
that are most related to the query are populated first. Any relations
that may not be eventually populated due to the cardinality constraint
would be the most weakly connected to the query." This bench quantifies
that: under a total-tuple budget, heaviest-first spends the budget on
high-weight neighbourhoods; FIFO (result-schema admission order) can
waste it on weakly connected ones.

Relevance metric: budget-weighted relevance = Σ over answer tuples of
the weight of the join edge that brought them in (seeds count 1.0).
"""

from __future__ import annotations

import random

import pytest

from repro.core import (
    JOIN_ORDER_FIFO,
    JOIN_ORDER_WEIGHT,
    MaxTotalTuples,
    TopRProjections,
    generate_result_database,
    generate_result_schema,
)
from repro.datasets import generate_movies_database, movies_graph
from repro.graph import random_weight_assignment


@pytest.fixture(scope="module")
def setup():
    db = generate_movies_database(n_movies=150, seed=5)
    # multiple origins + randomized weights: with one origin, admission
    # order already *is* decreasing path weight, so FIFO and weight
    # ordering coincide; interleaved origins make them diverge
    graphs = [
        movies_graph().with_weights(
            random_weight_assignment(movies_graph(), random.Random(seed))
        )
        for seed in range(12)
    ]
    seeds = {
        "MOVIE": set(list(db.relation("MOVIE").tids())[:2]),
        "ACTOR": set(list(db.relation("ACTOR").tids())[:2]),
        "THEATRE": set(list(db.relation("THEATRE").tids())[:2]),
    }
    schemas = [
        generate_result_schema(
            g, ["MOVIE", "ACTOR", "THEATRE"], TopRProjections(12)
        )
        for g in graphs
    ]
    return db, schemas, seeds


def _total_relevance(db, schemas, seeds, join_order) -> float:
    total = 0.0
    for schema in schemas:
        __, report = generate_result_database(
            db, schema, seeds, MaxTotalTuples(40), join_order=join_order
        )
        total += report.relevance()
    return total


@pytest.mark.parametrize("order", [JOIN_ORDER_WEIGHT, JOIN_ORDER_FIFO])
def test_join_order_speed(benchmark, setup, order):
    benchmark.group = "ablation: join order under a total budget"
    db, schemas, seeds = setup

    def run():
        for schema in schemas:
            generate_result_database(
                db, schema, seeds, MaxTotalTuples(40), join_order=order
            )

    benchmark(run)


def test_weight_order_wins_on_relevance(benchmark, setup):
    benchmark.group = "ablation: join order under a total budget"
    db, schemas, seeds = setup

    def run():
        return (
            _total_relevance(db, schemas, seeds, JOIN_ORDER_WEIGHT),
            _total_relevance(db, schemas, seeds, JOIN_ORDER_FIFO),
        )

    weight_score, fifo_score = benchmark.pedantic(run, rounds=1, iterations=1)
    assert weight_score >= fifo_score
    benchmark.extra_info["relevance"] = {
        "weight_order": weight_score,
        "fifo_order": fifo_score,
    }
