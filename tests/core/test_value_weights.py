"""Unit tests for value weights (§7 future-work extension)."""

import pytest

from repro import MaxTuplesPerRelation, WeightThreshold
from repro.core import (
    AttributeValueWeights,
    CallableWeigher,
    CombinedWeights,
    NumericAttributeWeights,
    TupleWeigher,
)
from repro.relational import Row


def _row(relation, tid, **values):
    return Row(relation, tid, tuple(values), tuple(values.values()))


class TestWeighers:
    def test_uniform_base(self):
        weigher = TupleWeigher()
        assert weigher.weight("R", _row("R", 1, A=1)) == 0.0

    def test_attribute_value_weights(self):
        weigher = AttributeValueWeights(
            {"GENRE": {"GENRE": {"Drama": 1.0, "Western": 0.1}}}
        )
        assert weigher.weight("GENRE", _row("GENRE", 1, GENRE="Drama")) == 1.0
        assert weigher.weight("GENRE", _row("GENRE", 2, GENRE="Western")) == 0.1
        assert weigher.weight("GENRE", _row("GENRE", 3, GENRE="Scifi")) == 0.0
        # unconfigured relation falls back to default
        assert weigher.weight("MOVIE", _row("MOVIE", 1, TITLE="x")) == 0.0

    def test_attribute_value_weights_default(self):
        weigher = AttributeValueWeights({}, default=0.5)
        assert weigher.weight("R", _row("R", 1, A=1)) == 0.5

    def test_numeric_recency(self):
        weigher = NumericAttributeWeights("MOVIE", "YEAR")
        recent = _row("MOVIE", 1, YEAR=2005)
        old = _row("MOVIE", 2, YEAR=1990)
        assert weigher.weight("MOVIE", recent) > weigher.weight("MOVIE", old)
        ascending = NumericAttributeWeights("MOVIE", "YEAR", descending=False)
        assert ascending.weight("MOVIE", old) > ascending.weight(
            "MOVIE", recent
        )

    def test_numeric_handles_nulls(self):
        weigher = NumericAttributeWeights("MOVIE", "YEAR")
        assert weigher.weight("MOVIE", _row("MOVIE", 1, YEAR=None)) == float(
            "-inf"
        )

    def test_callable(self):
        weigher = CallableWeigher(lambda rel, row: row.get("N", 0) * 2)
        assert weigher.weight("R", _row("R", 1, N=3)) == 6

    def test_combined(self):
        combined = CombinedWeights(
            CallableWeigher(lambda rel, row: 1.0),
            CallableWeigher(lambda rel, row: 2.0),
            scales=[1.0, 0.5],
        )
        assert combined.weight("R", _row("R", 1, A=1)) == 2.0

    def test_combined_validation(self):
        with pytest.raises(ValueError):
            CombinedWeights()
        with pytest.raises(ValueError):
            CombinedWeights(TupleWeigher(), scales=[1.0, 2.0])

    def test_sort_key_orders_descending_then_tid(self):
        weigher = CallableWeigher(lambda rel, row: row["W"])
        rows = [
            _row("R", 3, W=1.0),
            _row("R", 1, W=5.0),
            _row("R", 2, W=1.0),
        ]
        rows.sort(key=weigher.sort_key("R"))
        assert [r.tid for r in rows] == [1, 2, 3]


class TestGeneratorIntegration:
    def test_weigher_steers_naive_truncation(self, paper_engine):
        """Prefer old movies: the budgeted answer keeps 2001–2003

        instead of the tid-order 2005–2003 prefix."""
        prefer_old = NumericAttributeWeights(
            "MOVIE", "YEAR", descending=False
        )
        answer = paper_engine.ask(
            '"Woody Allen"',
            degree=WeightThreshold(0.9),
            cardinality=MaxTuplesPerRelation(3),
            strategy="naive",
            tuple_weigher=prefer_old,
        )
        years = sorted(row["YEAR"] for row in answer.rows_of("MOVIE"))
        assert years == [2001, 2002, 2003]

    def test_weigher_steers_round_robin_scan_order(self, paper_engine):
        """Per movie, the heavier genre is taken first in the RR round."""
        prefer = AttributeValueWeights(
            {"GENRE": {"GENRE": {"Thriller": 2.0, "Romance": 2.0,
                                 "Drama": 1.0, "Comedy": 0.5}}}
        )
        answer = paper_engine.ask(
            '"Woody Allen"',
            degree=WeightThreshold(0.9),
            cardinality=MaxTuplesPerRelation(3),
            strategy="round_robin",
            tuple_weigher=prefer,
        )
        genres = {row["GENRE"] for row in answer.rows_of("GENRE")}
        # movies 1..3 contribute their heaviest genre first:
        # Thriller (not Drama), Drama (not Comedy), Romance (not Comedy)
        assert genres == {"Thriller", "Drama", "Romance"}

    def test_weigher_steers_seed_selection(self, paper_engine):
        """With budget 1 on GENRE seeds, the heaviest matching tuple

        survives."""
        prefer = CallableWeigher(
            lambda rel, row: row.tid if rel == "GENRE" else 0.0
        )
        answer = paper_engine.ask(
            "Comedy",
            degree=WeightThreshold(0.95),
            cardinality=MaxTuplesPerRelation(1),
            tuple_weigher=prefer,
        )
        # four Comedy tuples (tids 3,5,7,8) — the highest-tid one wins
        tid_map = answer.report.tid_maps["GENRE"]
        assert set(tid_map) == {8}

    def test_without_weigher_prefix_is_tid_ordered(self, paper_engine):
        answer = paper_engine.ask(
            '"Woody Allen"',
            degree=WeightThreshold(0.9),
            cardinality=MaxTuplesPerRelation(3),
            strategy="naive",
        )
        years = [row["YEAR"] for row in answer.rows_of("MOVIE")]
        assert years == [2005, 2004, 2003]

    def test_cardinality_still_respected(self, paper_engine):
        answer = paper_engine.ask(
            '"Woody Allen"',
            degree=WeightThreshold(0.9),
            cardinality=MaxTuplesPerRelation(2),
            tuple_weigher=NumericAttributeWeights("MOVIE", "YEAR"),
        )
        assert all(n <= 2 for n in answer.cardinalities().values())


class TestQueryTimeWeights:
    def test_ask_weights_override_graph(self, paper_engine):
        answer = paper_engine.ask(
            '"Woody Allen"',
            degree=WeightThreshold(0.9),
            weights={("join", "MOVIE", "GENRE"): 0.1},
        )
        assert "GENRE" not in answer.result_schema.relations
        # engine's base graph untouched
        again = paper_engine.ask('"Woody Allen"', degree=WeightThreshold(0.9))
        assert "GENRE" in again.result_schema.relations

    def test_weights_layer_on_top_of_profile(self, paper_db, paper_graph):
        from repro import PrecisEngine, Profile

        engine = PrecisEngine(paper_db, graph=paper_graph)
        profile = Profile("p").set_join_weight("MOVIE", "GENRE", 0.95)
        answer = engine.ask(
            '"Woody Allen"',
            degree=WeightThreshold(0.9),
            profile=profile,
            weights={("join", "DIRECTOR", "MOVIE"): 0.2},
        )
        # profile keeps GENRE reachable via ACTOR->CAST->MOVIE; the
        # query-time override kills the DIRECTOR->MOVIE edge
        edges = {
            (e.source, e.target)
            for e in answer.result_schema.join_edges
        }
        assert ("DIRECTOR", "MOVIE") not in edges
        assert ("MOVIE", "GENRE") in edges
