"""Integration tests over synthetic databases and multiple subsystems."""

import pytest

from repro import (
    MaxTotalTuples,
    MaxTuplesPerRelation,
    PrecisEngine,
    TopRProjections,
    WeightThreshold,
    cardinality_for_response_time,
)
from repro.baselines import BanksSearch, DiscoverSearch
from repro.core import STRATEGY_ROUND_ROBIN
from repro.datasets import movies_graph, movies_translation_spec
from repro.nlg import Translator, generic_spec
from repro.relational.csvio import load_database, save_database


@pytest.fixture(scope="module")
def engine(synthetic_movies):
    return PrecisEngine(
        synthetic_movies,
        graph=movies_graph(),
        translator=Translator(movies_translation_spec()),
    )


def _any_director(db):
    return next(
        row["DNAME"] for row in db.relation("DIRECTOR").scan(["DNAME"])
    )


class TestSyntheticScale:
    def test_director_precis(self, engine, synthetic_movies):
        name = _any_director(synthetic_movies)
        answer = engine.ask(
            f'"{name}"',
            degree=WeightThreshold(0.9),
            cardinality=MaxTuplesPerRelation(5),
        )
        assert answer.found
        assert "MOVIE" in answer.result_schema.relations
        assert all(n <= 5 for n in answer.cardinalities().values())
        assert answer.narrative

    def test_movies_in_answer_belong_to_the_director(
        self, engine, synthetic_movies
    ):
        name = _any_director(synthetic_movies)
        answer = engine.ask(
            f'"{name}"',
            degree=WeightThreshold(0.95),
            cardinality=MaxTuplesPerRelation(10),
            strategy=STRATEGY_ROUND_ROBIN,
        )
        director_rel = synthetic_movies.relation("DIRECTOR")
        did = next(
            row["DID"]
            for row in director_rel.scan()
            if row["DNAME"] == name
        )
        for row in answer.database.relation("MOVIE").scan(["DID"]):
            assert row["DID"] == did

    def test_response_time_constraint_formula_3(self, engine, synthetic_movies):
        name = _any_director(synthetic_movies)
        schema, __, ___ = engine.plan(f'"{name}"', WeightThreshold(0.9))
        n_relations = len(schema.relations)
        budget_cost = 120.0
        constraint = cardinality_for_response_time(
            budget_cost, n_relations, synthetic_movies.meter.params
        )
        with synthetic_movies.meter.measure() as measured:
            engine.ask(
                f'"{name}"',
                degree=WeightThreshold(0.9),
                cardinality=constraint,
                translate=False,
            )
        # the modeled retrieval cost respects the derived budget within
        # one relation's worth of slack (Formula 2 is an approximation:
        # seeds and IN-list probes don't charge exactly c_R each)
        unit = synthetic_movies.meter.params.unit_fetch
        assert measured.modeled_cost <= budget_cost + n_relations * unit

    def test_total_cap_walk_stops_early(self, engine, synthetic_movies):
        name = _any_director(synthetic_movies)
        answer = engine.ask(
            f'"{name}"',
            degree=WeightThreshold(0.8),
            cardinality=MaxTotalTuples(6),
        )
        assert answer.total_tuples() <= 6


class TestAnswerIsADatabase:
    """The headline claim: answers are databases, so database tooling

    (CSV export, SQL, integrity checks) applies to them directly."""

    def test_answer_roundtrips_through_csv(self, engine, synthetic_movies, tmp_path):
        name = _any_director(synthetic_movies)
        answer = engine.ask(
            f'"{name}"',
            degree=WeightThreshold(0.9),
            cardinality=MaxTuplesPerRelation(4),
        )
        path = save_database(answer.database, tmp_path / "precis")
        back = load_database(path, enforce_foreign_keys=False)
        assert back.cardinalities() == answer.cardinalities()

    def test_sql_over_answer(self, engine, synthetic_movies, tmp_path):
        name = _any_director(synthetic_movies)
        answer = engine.ask(
            f'"{name}"', degree=WeightThreshold(0.9),
            cardinality=MaxTuplesPerRelation(4),
        )
        copy = load_database(
            save_database(answer.database, tmp_path / "precis"),
            enforce_foreign_keys=False,
            backend="sqlite",
        )
        rows = copy.backend.connection.execute(
            "SELECT m.TITLE FROM MOVIE m, DIRECTOR d WHERE m.DID = d.DID"
        ).fetchall()
        copy.close()
        assert len(rows) == len(answer.rows_of("MOVIE"))


class TestBaselineContrast:
    def test_same_tokens_three_systems(self, synthetic_movies):
        graph = movies_graph()
        name = _any_director(synthetic_movies)
        engine = PrecisEngine(synthetic_movies, graph=graph)
        precis = engine.ask(f'"{name}"', degree=WeightThreshold(0.9))
        discover = DiscoverSearch(
            synthetic_movies, graph, engine.index
        ).search([name.split()[0]], limit=10)
        banks = BanksSearch(
            synthetic_movies, graph, engine.index
        ).search([name.split()[0]], top_k=5)
        # précis: one sub-database; discover: many flat rows; banks: trees
        assert precis.database.total_tuples() > 0
        assert discover
        assert banks
        assert isinstance(discover[0].flat(), dict)


class TestGenericTranslationOnUniversity:
    def test_generic_spec_narrates(self, university_db, university_g):
        spec = generic_spec(
            university_g,
            {
                "DEPARTMENT": "DNAME",
                "INSTRUCTOR": "INAME",
                "COURSE": "CNAME",
                "STUDENT": "SNAME",
            },
        )
        engine = PrecisEngine(
            university_db, graph=university_g, translator=Translator(spec)
        )
        answer = engine.ask("Informatics", degree=TopRProjections(6))
        assert answer.found
        assert answer.narrative
