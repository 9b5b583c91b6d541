"""Figure 7 — Result Schema Generator execution time vs degree ``d``.

Paper setup: degree = maximum number of attributes projected
(``TopRProjections``), query tokens contained in a single relation,
20 random weight sets × 10 start relations per point (the paper averages
200 runs/point). Paper observation: "execution time … is very small even
for large values of d" — negligible next to the database generator.

The parametrized benchmark table reproduces the series; the shape test
asserts the negligible-and-at-most-linear growth on popped-path counts
(the deterministic proxy for work done).
"""

from __future__ import annotations

import pytest

from repro.bench import fit_linear
from repro.core import TopRProjections, generate_result_schema
from repro.obs import InMemorySink, Tracer

DEGREES = [5, 10, 20, 40, 80, 120]


def _run_all(graph, weight_sets, start_relations, d):
    """One Figure 7 point: all weight sets × all start relations."""
    for weights in weight_sets:
        personalized = graph.with_weights(weights)
        for origin in start_relations:
            generate_result_schema(
                personalized, [origin], TopRProjections(d)
            )


@pytest.mark.parametrize("d", DEGREES)
def test_fig7_point(
    benchmark, fig7_graph, fig7_weight_sets, fig7_start_relations, d
):
    benchmark.group = "fig7 result-schema-generator vs d"
    # benchmark one run (one weight set, one start relation), averaged
    # internally by pytest-benchmark; the sweep harness lives in the
    # shape test and run_experiments.py
    weights = fig7_weight_sets[0]
    personalized = fig7_graph.with_weights(weights)
    origin = fig7_start_relations[0]
    result = benchmark(
        generate_result_schema, personalized, [origin], TopRProjections(d)
    )
    assert len(result.projected_attributes) <= d


def test_fig7_shape(benchmark, fig7_graph, fig7_weight_sets, fig7_start_relations):
    """Work grows at most linearly in d and stays small in absolute

    terms (the paper's 'negligible' claim)."""
    benchmark.group = "fig7 result-schema-generator vs d"

    def sweep():
        series = []
        for d in DEGREES:
            sink = InMemorySink()
            tracer = Tracer([sink])
            for weights in fig7_weight_sets[:5]:
                personalized = fig7_graph.with_weights(weights)
                for origin in fig7_start_relations[:4]:
                    generate_result_schema(
                        personalized, [origin], TopRProjections(d),
                        tracer=tracer,
                    )
            series.append((d, sink.counter_total("paths_popped") / 20.0))
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    xs = [d for d, __ in series]
    ys = [work for __, work in series]
    assert all(y2 >= y1 for y1, y2 in zip(ys, ys[1:])), "work is monotone"
    fit = fit_linear(xs, ys)
    assert fit.r_squared > 0.9, f"super-linear growth: {series}"
    benchmark.extra_info["series (d, avg paths popped)"] = series
