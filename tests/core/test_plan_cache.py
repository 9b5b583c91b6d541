"""Tests for the optional result-schema (plan) cache."""

import pytest

from repro import PrecisEngine, TopRProjections, WeightThreshold
from repro.cache import CacheConfig
from repro.datasets import movies_graph, paper_instance


@pytest.fixture()
def engine():
    return PrecisEngine(
        paper_instance(),
        graph=movies_graph(),
        cache=CacheConfig(answers=False),
    )


class TestPlanCache:
    def test_same_query_reuses_schema_object(self, engine):
        first, __, ___ = engine.plan('"Woody Allen"', WeightThreshold(0.9))
        second, __, ___ = engine.plan('"Woody Allen"', WeightThreshold(0.9))
        assert first is second

    def test_cache_keyed_by_token_relations_not_tokens(self, engine):
        """Different tokens landing in the same relations share a plan."""
        match_point, __, ___ = engine.plan(
            '"Match Point"', WeightThreshold(0.9)
        )
        anything_else, __, ___ = engine.plan(
            '"Anything Else"', WeightThreshold(0.9)
        )
        assert match_point is anything_else

    def test_different_degree_different_plan(self, engine):
        a, __, ___ = engine.plan('"Woody Allen"', WeightThreshold(0.9))
        b, __, ___ = engine.plan('"Woody Allen"', TopRProjections(2))
        assert a is not b

    def test_profile_runs_bypass_cache(self, engine):
        from repro import Profile

        base, __, ___ = engine.plan('"Woody Allen"', WeightThreshold(0.9))
        profile = Profile("p").set_join_weight("MOVIE", "GENRE", 0.1)
        scoped, __, ___ = engine.plan(
            '"Woody Allen"', WeightThreshold(0.9), profile=profile
        )
        assert scoped is not base
        assert "GENRE" not in scoped.relations
        # cache not polluted by the profile run
        again, __, ___ = engine.plan('"Woody Allen"', WeightThreshold(0.9))
        assert again is base

    def test_query_time_weights_bypass_cache(self, engine):
        base, __, ___ = engine.plan('"Woody Allen"', WeightThreshold(0.9))
        overridden, __, ___ = engine.plan(
            '"Woody Allen"',
            WeightThreshold(0.9),
            weights={("join", "MOVIE", "GENRE"): 0.1},
        )
        assert overridden is not base

    def test_disabled_by_default(self):
        engine = PrecisEngine(paper_instance(), graph=movies_graph())
        a, __, ___ = engine.plan('"Woody Allen"', WeightThreshold(0.9))
        b, __, ___ = engine.plan('"Woody Allen"', WeightThreshold(0.9))
        assert a is not b

    def test_asks_sharing_a_plan_share_its_schemas(self, engine):
        """One immutable ResultSchema serves every ask with the same
        plan, and so does the answer schema built from it; each ask
        still gets a database of its own."""
        first = engine.ask('"Woody Allen"', degree=WeightThreshold(0.9))
        second = engine.ask('"Woody Allen"', degree=WeightThreshold(0.9))
        assert second is not first
        assert second.result_schema is first.result_schema
        assert second.database.schema is first.database.schema
        assert second.database is not first.database
        assert second.to_dict() == first.to_dict()

    def test_ask_still_correct_with_cache(self, engine):
        answer = engine.ask('"Woody Allen"', degree=WeightThreshold(0.9))
        again = engine.ask('"Woody Allen"', degree=WeightThreshold(0.9))
        assert answer.cardinalities() == again.cardinalities()

    def test_token_order_shares_one_entry(self, engine):
        """Regression: the old cache keyed on token *discovery order*,

        so reordering the tokens of a query re-planned the identical
        relation set. The canonical key sorts the relations."""
        first, __, ___ = engine.plan("allen drama", WeightThreshold(0.9))
        second, __, ___ = engine.plan("drama allen", WeightThreshold(0.9))
        assert second is first
        stats = engine.cache.stats()["plans"]
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_graph_mutation_invalidates_entry(self, engine):
        first, __, ___ = engine.plan('"Woody Allen"', WeightThreshold(0.9))
        assert "GENRE" in first.relations
        engine.graph.set_join_weight("MOVIE", "GENRE", 0.1)
        second, __, ___ = engine.plan('"Woody Allen"', WeightThreshold(0.9))
        assert second is not first
        assert "GENRE" not in second.relations
        assert engine.cache.stats()["plans"]["invalidations"] == 1

    def test_data_mutation_does_not_invalidate_plans(self, engine):
        """Plans depend on the graph only — tuple churn keeps them hot."""
        first, __, ___ = engine.plan('"Woody Allen"', WeightThreshold(0.9))
        engine.db.insert(
            "MOVIE", {"MID": 95, "TITLE": "Churn", "YEAR": 2024, "DID": 1}
        )
        second, __, ___ = engine.plan('"Woody Allen"', WeightThreshold(0.9))
        assert second is first

    def test_per_occurrence_schemas_go_through_the_cache(self):
        """Each occurrence's schema is planned like an ask's: the first
        call misses once per occurrence, the second hits and runs no
        schema generator, and EXPLAIN names the real outcome."""
        from repro.obs import InMemorySink, Tracer

        engine = PrecisEngine(
            paper_instance(), graph=movies_graph(), cache=True
        )
        seen = []
        for __ in range(2):
            sink = InMemorySink()
            answers = engine.ask_per_occurrence(
                '"Woody Allen"', tracer=Tracer([sink])
            )
            names = [span.name for span, __ in sink.last.walk()]
            seen.append(
                (
                    [a.explanation.cache.plan for a in answers],
                    names.count("schema_generator"),
                )
            )
        assert seen == [(["miss", "miss"], 2), (["hit", "hit"], 0)]
        stats = engine.cache.stats()
        assert (stats["plans"]["misses"], stats["plans"]["hits"]) == (2, 2)
        # no ask signature names one occurrence: never answer-cached
        assert stats["answers"]["misses"] == stats["answers"]["hits"] == 0
