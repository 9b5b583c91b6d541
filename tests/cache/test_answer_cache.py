"""The engine-level answer cache: hits, key sensitivity, invalidation."""

import pytest

from repro import (
    MaxTuplesPerRelation,
    PrecisEngine,
    Profile,
    TopRProjections,
    WeightThreshold,
)
from repro.cache import CacheConfig, EngineCache
from repro.datasets import movies_graph, paper_instance
from repro.obs import InMemorySink, Tracer
from repro.text import SynchronizedWriter, build_index

WOODY = '"Woody Allen"'
D09 = WeightThreshold(0.9)


@pytest.fixture()
def engine():
    return PrecisEngine(paper_instance(), graph=movies_graph(), cache=True)


class TestHits:
    def test_repeat_ask_returns_cached_answer(self, engine):
        first = engine.ask(WOODY, degree=D09)
        second = engine.ask(WOODY, degree=D09)
        assert second is first
        stats = engine.cache_stats()["answers"]
        assert stats == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "invalidations": 0,
        }

    def test_counters_reach_the_tracer(self, engine):
        sink = InMemorySink()
        tracer = Tracer([sink])
        engine.ask(WOODY, degree=D09, tracer=tracer)
        answer = engine.ask(WOODY, degree=D09, tracer=tracer)
        assert answer.stats.total_counters()["answer_cache_hit"] == 1
        assert answer.stats.find("cache") is not None

    def test_traced_hit_leaves_earlier_answers_alone(self, engine):
        """A traced hit gets an answer object of its own carrying its
        own root span; the cached entry and every answer already handed
        out keep theirs."""
        first = engine.ask(WOODY, tracer=Tracer())
        first_stats = first.stats
        second = engine.ask(WOODY, tracer=Tracer())
        assert second is not first
        assert first.stats is first_stats
        assert [span.name for span, __ in first.stats.walk()][:3] == [
            "ask", "cache", "match",
        ]
        assert [span.name for span, __ in second.stats.walk()] == [
            "ask", "cache",
        ]
        assert second.to_dict() == first.to_dict()
        # an untraced hit returns the cached entry itself, spanless
        cached = engine.ask(WOODY)
        assert cached is engine.ask(WOODY)
        assert cached.stats is None
        assert cached is not first and cached is not second

    def test_string_and_parsed_queries_share_entries(self, engine):
        from repro.core import PrecisQuery

        first = engine.ask(WOODY, degree=D09)
        second = engine.ask(PrecisQuery.parse(WOODY), degree=D09)
        assert second is first


class TestKeySensitivity:
    def test_different_degree_misses(self, engine):
        a = engine.ask(WOODY, degree=D09)
        b = engine.ask(WOODY, degree=TopRProjections(2))
        assert b is not a

    def test_different_cardinality_misses(self, engine):
        a = engine.ask(WOODY, degree=D09)
        b = engine.ask(
            WOODY, degree=D09, cardinality=MaxTuplesPerRelation(1)
        )
        assert b is not a
        assert b.total_tuples() <= a.total_tuples()

    def test_different_strategy_misses(self, engine):
        a = engine.ask(WOODY, degree=D09, strategy="naive")
        b = engine.ask(WOODY, degree=D09, strategy="round_robin")
        assert b is not a

    def test_weight_overrides_key_separately(self, engine):
        base = engine.ask(WOODY, degree=D09)
        overridden = engine.ask(
            WOODY, degree=D09, weights={("join", "MOVIE", "GENRE"): 0.1}
        )
        assert overridden is not base
        assert "GENRE" not in overridden.result_schema.relations
        # both entries live side by side
        assert engine.ask(WOODY, degree=D09) is base
        assert (
            engine.ask(
                WOODY, degree=D09, weights={("join", "MOVIE", "GENRE"): 0.1}
            )
            is overridden
        )

    def test_profile_contents_in_key(self, engine):
        """A mutated registered profile must not serve its old answer."""
        profile = Profile("muted").set_join_weight("MOVIE", "GENRE", 0.1)
        engine.register_profile(profile)
        a = engine.ask(WOODY, degree=D09, profile="muted")
        assert "GENRE" not in a.result_schema.relations
        profile.set_join_weight("MOVIE", "GENRE", 1.0)
        b = engine.ask(WOODY, degree=D09, profile="muted")
        assert b is not a
        assert "GENRE" in b.result_schema.relations

    def test_tuple_weigher_bypasses_cache(self, engine):
        from repro.core.value_weights import NumericAttributeWeights

        weigher = NumericAttributeWeights("MOVIE", "YEAR")
        a = engine.ask(WOODY, degree=D09, tuple_weigher=weigher)
        b = engine.ask(WOODY, degree=D09, tuple_weigher=weigher)
        assert b is not a
        assert engine.cache_stats()["answers"]["misses"] == 0


class TestInvalidation:
    def test_db_mutation_invalidates(self, engine):
        first = engine.ask(WOODY, degree=D09)
        engine.db.insert(
            "MOVIE", {"MID": 80, "TITLE": "Fresh", "YEAR": 2024, "DID": 1}
        )
        second = engine.ask(WOODY, degree=D09)
        assert second is not first
        assert engine.cache_stats()["answers"]["invalidations"] == 1

    def test_index_mutation_invalidates(self, engine):
        first = engine.ask(WOODY, degree=D09)
        engine.index.add_value("MOVIE", "TITLE", 999, "Phantom Entry")
        assert engine.ask(WOODY, degree=D09) is not first

    def test_graph_mutation_invalidates_plans_and_answers(self, engine):
        first = engine.ask(WOODY, degree=D09)
        engine.graph.set_join_weight("MOVIE", "GENRE", 0.1)
        second = engine.ask(WOODY, degree=D09)
        assert second is not first
        assert "GENRE" not in second.result_schema.relations
        assert engine.cache_stats()["plans"]["invalidations"] >= 1

    def test_writer_update_reflected_immediately(self):
        db = paper_instance()
        index = build_index(db)
        engine = PrecisEngine(
            db, graph=movies_graph(), index=index, cache=True
        )
        writer = SynchronizedWriter(db, index)
        before = engine.ask('"Match Point"', degree=D09)
        assert before.found
        writer.update("MOVIE", 1, {"TITLE": "Renamed Feature"})
        after = engine.ask('"Renamed Feature"', degree=D09)
        assert after.found
        stale = engine.ask('"Match Point"', degree=D09)
        assert not stale.found  # old title is really gone


class TestConfiguration:
    def test_disabled_by_default(self):
        engine = PrecisEngine(paper_instance(), graph=movies_graph())
        assert engine.cache is None
        assert engine.cache_stats() == {}
        a = engine.ask(WOODY, degree=D09)
        b = engine.ask(WOODY, degree=D09)
        assert a is not b

    def test_cache_false_disables(self):
        engine = PrecisEngine(
            paper_instance(), graph=movies_graph(), cache=False
        )
        assert engine.cache is None

    def test_plan_only_config_keeps_plan_layer_only(self):
        engine = PrecisEngine(
            paper_instance(),
            graph=movies_graph(),
            cache=CacheConfig(answers=False),
        )
        assert engine.cache.plans is not None
        assert engine.cache.answers is None

    def test_config_and_prebuilt_instances(self):
        config = CacheConfig(answers=True, answer_entries=4)
        engine = PrecisEngine(
            paper_instance(), graph=movies_graph(), cache=config
        )
        assert engine.cache.answers is not None

        shared = EngineCache()
        engine2 = PrecisEngine(
            paper_instance(), graph=movies_graph(), cache=shared
        )
        assert engine2.cache is shared

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(plan_entries=0)
        with pytest.raises(ValueError):
            CacheConfig(answer_entries=-1)

    def test_clear_empties_both_layers(self, engine):
        engine.ask(WOODY, degree=D09)
        assert engine.cache.clear() >= 2  # one plan + one answer
        assert len(engine.cache.answers) == 0
