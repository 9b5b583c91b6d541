"""EXPLAIN provenance: why each relation/batch is in the answer and
which constraint bounded it (repro.core.explain.build_explanation +
repro.obs.explain)."""

import json

import pytest

from repro.cache import CacheConfig
from repro.core import (
    MaxTotalTuples,
    MaxTuplesPerRelation,
    PrecisEngine,
    Unlimited,
    WeightThreshold,
    build_explanation,
    render_explanation,
)
from repro.core.constraints import (
    CompositeCardinality,
    CompositeDegree,
    MaxPathLength,
    TopRProjections,
)
from repro.datasets import movies_graph, paper_instance


@pytest.fixture()
def engine():
    return PrecisEngine(paper_instance(), graph=movies_graph())


class TestConstraintDescriptions:
    def test_each_constraint_names_its_parameter(self):
        assert WeightThreshold(0.9).describe() == "weight threshold (w0=0.9)"
        assert TopRProjections(5).describe() == "top-r projections (r=5)"
        assert MaxPathLength(3).describe() == "max path length (l0=3)"
        assert MaxTotalTuples(7).describe() == "max total tuples (c0=7)"
        assert (
            MaxTuplesPerRelation(4).describe()
            == "max tuples per relation (c0=4)"
        )
        assert Unlimited().describe() == "unlimited"

    def test_composites_join_parts(self):
        degree = CompositeDegree(WeightThreshold(0.5), MaxPathLength(2))
        assert (
            degree.describe()
            == "weight threshold (w0=0.5) AND max path length (l0=2)"
        )
        cardinality = CompositeCardinality(
            MaxTotalTuples(9), MaxTuplesPerRelation(3)
        )
        assert "AND" in cardinality.describe()


class TestRelationProvenance:
    def test_seed_vs_joined(self, engine):
        answer = engine.ask("Allen", translate=False)
        explanation = answer.explanation
        actor = explanation.relation("ACTOR")
        assert actor.kind == "seed"
        assert actor.tokens == ("allen",)
        movie = explanation.relation("MOVIE")
        assert movie.kind == "joined"
        assert movie.via_edge in (
            "DIRECTOR.DID → MOVIE.DID",
            "CAST.MID → MOVIE.MID",
        )
        assert movie.path_weight is not None
        assert explanation.relation("NOPE") is None

    def test_every_schema_relation_is_explained(self, engine):
        answer = engine.ask("Allen", translate=False)
        explained = {entry.relation for entry in answer.explanation.relations}
        assert explained == set(answer.result_schema.relations)


class TestBoundingConstraints:
    def test_degree_stop_names_the_constraint(self, engine):
        answer = engine.ask(
            "Allen", degree=WeightThreshold(0.9), translate=False
        )
        stop = answer.explanation.schema_stop
        assert stop.kind == "degree"
        assert stop.constraint == "weight threshold (w0=0.9)"
        assert stop.rejected_path is not None
        assert stop.rejected_weight < 0.9
        assert (
            "degree: weight threshold (w0=0.9)"
            in answer.explanation.bounding_constraints()
        )

    def test_composite_degree_names_the_failing_part(self, engine):
        answer = engine.ask(
            "Allen",
            degree=CompositeDegree(WeightThreshold(0.9), MaxPathLength(50)),
            translate=False,
        )
        # only the weight threshold can fail here — the length bound is
        # far beyond the graph diameter
        assert (
            answer.explanation.schema_stop.constraint
            == "weight threshold (w0=0.9)"
        )

    def test_cardinality_stop_names_the_constraint(self, engine):
        answer = engine.ask(
            "Allen", cardinality=MaxTotalTuples(5), translate=False
        )
        explanation = answer.explanation
        assert explanation.stopped_by_cardinality
        assert (
            "cardinality: max total tuples (c0=5)"
            in explanation.bounding_constraints()
        )
        assert any(batch.budget is not None for batch in explanation.batches)

    def test_unbounded_answer_reports_nothing(self, engine):
        # exhaust the whole graph and take every tuple: no constraint bites
        answer = engine.ask(
            "Allen",
            degree=WeightThreshold(0.0),
            cardinality=Unlimited(),
            translate=False,
        )
        explanation = answer.explanation
        assert explanation.schema_stop.kind == "exhausted"
        assert explanation.bounding_constraints() == []
        assert "bounded by: nothing" in explanation.render()


class TestTupleBatches:
    def test_seed_and_join_batches(self, engine):
        answer = engine.ask("Allen", translate=False)
        batches = answer.explanation.batches
        seeds = [b for b in batches if b.kind == "seed"]
        joins = [b for b in batches if b.kind == "join"]
        assert {b.relation for b in seeds} == {"ACTOR", "DIRECTOR"}
        assert all(b.strategy is None for b in seeds)
        assert all(b.via_edge is not None for b in joins)
        assert all(b.strategy in ("naive", "round_robin") for b in joins)
        assert all(b.edge_weight is not None for b in joins)

    def test_budgets_ride_on_batches(self, engine):
        answer = engine.ask(
            "Allen", cardinality=MaxTotalTuples(5), translate=False
        )
        budgets = [b.budget for b in answer.explanation.batches]
        assert budgets[0] == 5  # first seed sees the full budget
        assert all(b is not None for b in budgets)


class TestCacheProvenance:
    def test_no_cache_reports_off(self, engine):
        answer = engine.ask("Allen", translate=False)
        assert answer.explanation.cache.plan == "off"
        assert answer.explanation.cache.answer == "off"

    def test_plan_cache_hit_keeps_original_stop(self):
        engine = PrecisEngine(
            paper_instance(),
            graph=movies_graph(),
            cache=CacheConfig(answers=False),
        )
        first = engine.ask("Allen", translate=False)
        second = engine.ask("Allen", translate=False)
        assert first.explanation.cache.plan == "miss"
        assert second.explanation.cache.plan == "hit"
        # the stop reason rides on the cached ResultSchema
        assert (
            second.explanation.schema_stop == first.explanation.schema_stop
        )
        assert second.explanation.schema_stop.kind == "degree"

    def test_answer_cache_hit_returns_building_runs_explanation(self):
        engine = PrecisEngine(
            paper_instance(), graph=movies_graph(), cache=True
        )
        first = engine.ask("Allen", translate=False)
        second = engine.ask("Allen", translate=False)
        assert second is first  # served from the answer cache
        assert second.explanation.cache.answer == "miss"


class TestExportAndRender:
    def test_to_dict_is_json_serializable(self, engine):
        answer = engine.ask(
            "Allen", cardinality=MaxTotalTuples(5), translate=False
        )
        parsed = json.loads(json.dumps(answer.explanation.to_dict()))
        assert parsed["query"] == "Allen"
        assert parsed["schema_stop"]["kind"] == "degree"
        assert parsed["bounding_constraints"]
        assert parsed["cache"] == {"plan": "off", "answer": "off"}

    def test_render_names_the_decisions(self, engine):
        answer = engine.ask(
            "Allen", cardinality=MaxTotalTuples(5), translate=False
        )
        text = render_explanation(answer)
        assert "why-précis for 'Allen'" in text
        assert "ACTOR: seed" in text
        assert "joined via" in text
        assert "schema expansion stopped by weight threshold (w0=0.9)" in text
        assert "bounded by:" in text
        assert "cardinality: max total tuples (c0=5)" in text

    def test_render_rejects_explanationless_answer(self, engine):
        answer = engine.ask("Allen", translate=False)
        answer.explanation = None
        with pytest.raises(ValueError):
            render_explanation(answer)

    def test_explanation_excluded_from_answer_to_dict(self, engine):
        answer = engine.ask("Allen", translate=False)
        assert "explanation" not in answer.to_dict()

    def test_standalone_builder(self, engine):
        answer = engine.ask("Allen", translate=False)
        rebuilt = build_explanation(
            answer, WeightThreshold(0.9), Unlimited()
        )
        assert rebuilt.relation("ACTOR").kind == "seed"
        assert rebuilt.cache.plan == "off"


class TestPerOccurrenceExplanations:
    def test_each_homonym_answer_is_explained(self, engine):
        answers = engine.ask_per_occurrence("Allen", translate=False)
        assert len(answers) == 2
        for answer in answers:
            explanation = answer.explanation
            assert explanation is not None
            seeds = [
                e for e in explanation.relations if e.kind == "seed"
            ]
            assert len(seeds) == 1  # one schema per occurrence
