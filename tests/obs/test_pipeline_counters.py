"""End-to-end stage-counter invariants across all three datasets.

The counters are only trustworthy if they agree with what the answer
itself says happened: ``tuples_emitted`` must equal the answer's tuple
count, ``seed_tuples``/``joins_executed`` must mirror the generator
report, ``cache_hit`` must flip on the second identical ask, and an
engine without tracing must hang no stats on its answers at all. A
traced answer's ``stats`` is the recorded span tree itself, not a copy.
"""

import pytest

from repro import (
    InMemorySink,
    MaxTuplesPerRelation,
    PrecisEngine,
    Tracer,
    WeightThreshold,
)
from repro.cache import CacheConfig
from repro.datasets import (
    generate_library_database,
    generate_movies_database,
    generate_university_database,
    library_graph,
    movies_graph,
    movies_translation_spec,
    paper_instance,
    university_graph,
)
from repro.nlg import Translator


def _movies():
    db = generate_movies_database(n_movies=60, seed=13)
    return db, movies_graph(), ("MOVIE", "TITLE")


def _university():
    db = generate_university_database(n_students=40, n_courses=10, seed=13)
    return db, university_graph(), ("COURSE", "CNAME")


def _library():
    db = generate_library_database(n_items=60, seed=13)
    return db, library_graph(), ("ITEM", "TITLE")


DATASETS = {
    "movies": _movies,
    "university": _university,
    "library": _library,
}


@pytest.fixture(params=sorted(DATASETS))
def traced_setup(request, mem_sink):
    """A freshly traced engine + a token known to exist in the data."""
    db, graph, (relation, attribute) = DATASETS[request.param]()
    token = next(
        row[attribute] for row in db.relation(relation).scan([attribute])
    )
    engine = PrecisEngine(db, graph=graph, tracer=Tracer([mem_sink]))
    return engine, f'"{token}"', mem_sink


class TestCounterInvariants:
    def test_counters_agree_with_answer_and_report(self, traced_setup):
        engine, query, __ = traced_setup
        answer = engine.ask(
            query,
            degree=WeightThreshold(0.5),
            cardinality=MaxTuplesPerRelation(4),
        )
        assert answer.found
        assert answer.stats is not None
        totals = answer.stats.total_counters()
        assert totals["tuples_emitted"] == answer.total_tuples()
        assert totals["seed_tuples"] == sum(
            answer.report.seed_counts.values()
        )
        assert totals["joins_executed"] == answer.report.joins_executed
        assert totals.get("joins_skipped", 0) == len(
            answer.report.skipped_edges
        )
        assert totals["tokens_matched"] == sum(
            1 for match in answer.matches if match.found
        )
        assert totals["relations_expanded"] == len(
            answer.result_schema.relations
        )

    def test_stage_layout(self, traced_setup):
        engine, query, __ = traced_setup
        answer = engine.ask(query, degree=WeightThreshold(0.5))
        names = [span.name for span, __ in answer.stats.walk()]
        assert names[0] == "ask"
        for stage in ("match", "schema", "schema_generator",
                      "database_generator"):
            assert stage in names
        assert answer.stats.duration_s > 0
        # children are contained in the root's wall time
        child_total = sum(
            child.duration_s for child in answer.stats.children
        )
        assert child_total <= answer.stats.duration_s

    def test_stats_is_the_recorded_root(self, traced_setup):
        engine, query, sink = traced_setup
        answer = engine.ask(query, degree=WeightThreshold(0.5))
        assert answer.stats is sink.last

    def test_build_index_span_recorded(self, traced_setup):
        engine, __, sink = traced_setup
        build = sink.find("build_index")
        assert build is not None
        assert build.counter("attributes_indexed") > 0
        assert build.counter("values_indexed") > 0

    def test_unmatched_query_still_traced(self, traced_setup):
        engine, __, ___ = traced_setup
        answer = engine.ask("zzzzzz-no-such-token")
        assert not answer.found
        assert answer.stats is not None
        totals = answer.stats.total_counters()
        assert totals.get("tokens_matched", 0) == 0
        assert totals.get("tuples_emitted", 0) == 0


class TestPlanCacheCounters:
    def test_cache_hit_increments_on_second_identical_ask(self, mem_sink):
        engine = PrecisEngine(
            paper_instance(),
            graph=movies_graph(),
            cache=CacheConfig(answers=False),
            tracer=Tracer([mem_sink]),
        )
        first = engine.ask('"Woody Allen"', degree=WeightThreshold(0.9))
        second = engine.ask('"Woody Allen"', degree=WeightThreshold(0.9))
        assert first.stats.total_counters()["cache_hit"] == 0
        assert first.stats.total_counters()["cache_miss"] == 1
        assert second.stats.total_counters()["cache_hit"] == 1
        assert second.stats.total_counters()["cache_miss"] == 0
        # a cache hit skips the schema generator entirely
        assert second.stats.find("schema_generator") is None
        assert second.cardinalities() == first.cardinalities()

    def test_no_cache_counters_when_cache_disabled(self, mem_sink):
        engine = PrecisEngine(
            paper_instance(), graph=movies_graph(), tracer=Tracer([mem_sink])
        )
        answer = engine.ask('"Woody Allen"')
        assert "cache_hit" not in answer.stats.total_counters()
        assert "cache_miss" not in answer.stats.total_counters()


class TestTranslateStage:
    def test_translate_span_counts_paragraphs(self, mem_sink):
        engine = PrecisEngine(
            paper_instance(),
            graph=movies_graph(),
            translator=Translator(movies_translation_spec()),
            tracer=Tracer([mem_sink]),
        )
        answer = engine.ask('"Woody Allen"', degree=WeightThreshold(0.9))
        assert answer.narrative
        stage = answer.stats.find("translate")
        assert stage is not None
        assert stage.counter("paragraphs_emitted") == (
            answer.narrative.count("\n\n") + 1
        )


class TestPerOccurrence:
    def test_each_answer_carries_its_own_stats(self, mem_sink):
        engine = PrecisEngine(
            paper_instance(), graph=movies_graph(), tracer=Tracer([mem_sink])
        )
        answers = engine.ask_per_occurrence('"Woody Allen"')
        assert len(answers) == 2  # director + actor homonym
        for answer in answers:
            assert answer.stats is not None
            assert answer.stats.name == "occurrence"
            assert (
                answer.stats.total_counters()["tuples_emitted"]
                == answer.total_tuples()
            )
        # one root span for the whole per-occurrence run, and each
        # answer's stats is its own occurrence child of that root
        assert [s.name for s in mem_sink.spans if s.name != "build_index"] == [
            "ask_per_occurrence"
        ]
        occurrences = [
            child
            for child in mem_sink.last.children
            if child.name == "occurrence"
        ]
        assert len(occurrences) == len(answers)
        for answer, occurrence in zip(answers, occurrences):
            assert answer.stats is occurrence


class TestTracingDisabled:
    def test_untraced_engine_hangs_no_stats(self):
        engine = PrecisEngine(paper_instance(), graph=movies_graph())
        answer = engine.ask('"Woody Allen"')
        assert answer.stats is None
        for per_occ in engine.ask_per_occurrence('"Woody Allen"'):
            assert per_occ.stats is None

    def test_per_call_tracer_overrides_null_default(self, mem_sink):
        engine = PrecisEngine(paper_instance(), graph=movies_graph())
        answer = engine.ask('"Woody Allen"', tracer=Tracer([mem_sink]))
        assert answer.stats is not None
        assert mem_sink.find("ask") is not None
        # and the engine default is untouched
        again = engine.ask('"Woody Allen"')
        assert again.stats is None
