"""Unit tests for the translator, including the paper's golden narrative."""

import os
import sys
import threading

import pytest

from repro import MaxTuplesPerRelation, PrecisEngine, WeightThreshold
from repro.datasets import (
    generate_movies_database,
    movies_graph,
    movies_translation_spec,
    paper_instance,
)
from repro.nlg import TranslationSpec, Translator, generic_spec


@pytest.fixture()
def engine():
    return PrecisEngine(
        paper_instance(),
        graph=movies_graph(),
        translator=Translator(movies_translation_spec()),
    )


class TestPaperNarrative:
    def test_director_paragraph_verbatim(self, engine):
        """The §5.3 result for the token in DIRECTOR, word for word:

            Woody Allen was born on December 1, 1935 in Brooklyn, New
            York, USA. As a director, Woody Allen's work includes Match
            Point (2005), Melinda and Melinda (2004), Anything Else
            (2003). Match Point is Drama, Thriller. Melinda and Melinda
            is Comedy, Drama. Anything Else is Comedy, Romance.

        (run with the paper's cardinality of three tuples per relation
        on MOVIE; genres unconstrained as in the §5.3 listing).
        """
        answer = engine.ask(
            '"Woody Allen"',
            degree=WeightThreshold(0.9),
        )
        paragraphs = answer.narrative.split("\n\n")
        director_par = next(p for p in paragraphs if "director" in p)
        assert director_par.startswith(
            "Woody Allen was born on December 1, 1935 in "
            "Brooklyn, New York, USA."
        )
        assert (
            "As a director, Woody Allen's work includes Match Point (2005), "
            "Melinda and Melinda (2004), Anything Else (2003), "
            "Hollywood Ending (2002), "
            "The Curse of the Jade Scorpion (2001)." in director_par
        )
        assert "Match Point is Drama, Thriller." in director_par
        assert "Melinda and Melinda is Comedy, Drama." in director_par
        assert "Anything Else is Comedy, Romance." in director_par

    def test_paper_exact_three_movie_listing(self, engine):
        """With the paper's 'up to three tuples per relation' bound the

        movie list is exactly the three titles of the running example."""
        answer = engine.ask(
            '"Woody Allen"',
            degree=WeightThreshold(0.9),
            cardinality=MaxTuplesPerRelation(3),
        )
        assert (
            "As a director, Woody Allen's work includes Match Point (2005), "
            "Melinda and Melinda (2004), Anything Else (2003)."
            in answer.narrative
        )

    def test_one_paragraph_per_token_occurrence(self, engine):
        """Woody Allen the actor and Woody Allen the director are

        homonyms: one answer part each (§5.1/§5.3)."""
        answer = engine.ask('"Woody Allen"', degree=WeightThreshold(0.9))
        paragraphs = answer.narrative.split("\n\n")
        assert len(paragraphs) == 2
        assert any("As an actor" in p for p in paragraphs)
        assert any("As a director" in p for p in paragraphs)

    def test_actor_paragraph_traverses_unlabelled_cast(self, engine):
        """The ACTOR→CAST edge has no label (CAST has no heading

        attribute); the clause appears at CAST→MOVIE with the actor's
        name inherited from two hops back."""
        answer = engine.ask('"Woody Allen"', degree=WeightThreshold(0.9))
        actor_par = next(
            p for p in answer.narrative.split("\n\n") if "As an actor" in p
        )
        assert "Hollywood Ending (2002)" in actor_par
        assert "The Curse of the Jade Scorpion (2001)" in actor_par

    def test_seed_excluded_by_cardinality_not_narrated(self, engine):
        answer = engine.ask(
            '"Comedy"',
            degree=WeightThreshold(0.9),
            cardinality=MaxTuplesPerRelation(2),
        )
        # four Comedy tuples exist; only two survive the cap, so the
        # narrative must contain exactly two paragraphs
        assert answer.narrative.count("\n\n") == 1


class TestGenericSpec:
    def test_generic_labels_produce_prose(self, paper_db, paper_graph):
        spec = generic_spec(
            paper_graph,
            {"MOVIE": "TITLE", "DIRECTOR": "DNAME", "GENRE": "GENRE",
             "ACTOR": "ANAME", "THEATRE": "NAME"},
        )
        engine = PrecisEngine(
            paper_db, graph=paper_graph, translator=Translator(spec)
        )
        answer = engine.ask('"Match Point"', degree=WeightThreshold(0.9))
        assert answer.narrative
        assert "Match Point" in answer.narrative

    def test_spec_builders_chain(self):
        spec = (
            TranslationSpec()
            .set_heading("R", "NAME")
            .label_projection("R", "NAME", "@NAME")
            .label_join("R", "S", '"joined"')
            .define_macro("M", '"m"')
        )
        assert spec.heading_of("R") == "NAME"
        assert spec.projection_label("R", "NAME") is not None
        assert spec.join_label("R", "S") is not None
        assert spec.projection_label("R", "NOPE") is None
        assert spec.join_label("S", "R") is None


class TestTranslatorEdgeCases:
    def test_no_matches_no_narrative(self, engine):
        answer = engine.ask('"zzz unknown zzz"')
        assert answer.narrative is None

    def test_null_attribute_skipped(self, paper_graph):
        db = paper_instance()
        db.insert(
            "DIRECTOR",
            {"DID": 9, "DNAME": "No Bio", "BLOCATION": None, "BDATE": None},
        )
        engine = PrecisEngine(
            db,
            graph=paper_graph,
            translator=Translator(movies_translation_spec()),
        )
        answer = engine.ask('"No Bio"', degree=WeightThreshold(0.9))
        paragraph = answer.narrative
        assert paragraph.startswith("No Bio")
        assert "was born on" not in paragraph

    def test_one_translator_shared_by_threads(self):
        """A served engine shares one translator between its worker
        threads: each translation keeps its working state to itself,
        so concurrent translations, switching every microsecond, read
        exactly as serial ones and leave nothing on the translator."""
        spec = movies_translation_spec()
        engine = PrecisEngine(
            generate_movies_database(n_movies=60, seed=3),
            graph=movies_graph(),
        )
        answers = [
            engine.ask(query, translate=False)
            for query in ("Garcia", "Harbor", "Comedy", "Ivanov", "Drama")
        ]
        translator = Translator(spec)
        expected = [translator.translate(answer) for answer in answers]
        n_threads = max(2, (os.cpu_count() or 1) + 1)
        results: dict[int, list[str]] = {}
        errors = []

        def worker(offset):
            try:
                order = answers[offset:] + answers[:offset]
                results[offset] = [
                    translator.translate(answer) for answer in order * 3
                ]
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(i % len(answers),))
                for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for offset, narratives in results.items():
            order = expected[offset:] + expected[:offset]
            assert narratives == order * 3
        assert vars(translator) == {"spec": spec}
