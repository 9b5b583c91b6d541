"""Tests for database/index synchronization."""

import pytest

from repro import PrecisEngine, WeightThreshold
from repro.relational import ForeignKeyViolation
from repro.text import SynchronizedWriter, build_index


@pytest.fixture()
def setup(paper_graph):
    from repro.datasets import paper_instance

    db = paper_instance()
    index = build_index(db)
    return db, index, SynchronizedWriter(db, index)


class TestInsert:
    def test_new_tuple_immediately_searchable(self, setup, paper_graph):
        db, index, writer = setup
        writer.insert(
            "MOVIE",
            {"MID": 50, "TITLE": "Sleeper", "YEAR": 1973, "DID": 1},
        )
        engine = PrecisEngine(db, graph=paper_graph, index=index)
        answer = engine.ask("Sleeper", degree=WeightThreshold(0.9))
        assert answer.found
        assert any(
            row["TITLE"] == "Sleeper" for row in answer.rows_of("MOVIE")
        )

    def test_null_text_not_indexed(self, setup):
        db, index, writer = setup
        tid = writer.insert(
            "MOVIE", {"MID": 51, "TITLE": None, "YEAR": 1999, "DID": 1}
        )
        assert tid in db.relation("MOVIE")


class TestDelete:
    def test_deleted_tuple_unsearchable(self, setup):
        db, index, writer = setup
        tid = writer.insert(
            "MOVIE", {"MID": 52, "TITLE": "Zelig", "YEAR": 1983, "DID": 1}
        )
        assert index.lookup_word("zelig")
        writer.delete("MOVIE", tid)
        assert index.lookup_word("zelig") == []
        assert tid not in db.relation("MOVIE")


class TestDeleteIntegrity:
    """Deletes keep referential integrity on an FK-enforcing database."""

    @pytest.fixture()
    def movies(self):
        from repro.datasets import generate_movies_database

        db = generate_movies_database(n_movies=50, seed=1)
        index = build_index(db)
        return db, index, SynchronizedWriter(db, index)

    @staticmethod
    def director_tids(index, name):
        return {
            tid
            for occ in index.lookup_token(name)
            if occ.relation == "DIRECTOR"
            for tid in occ.tids
        }

    def test_refused_delete_leaves_database_and_index(self, movies):
        db, index, writer = movies
        director = next(db.relation("DIRECTOR").scan())
        assert db.relation("MOVIE").lookup("DID", director["DID"])
        with pytest.raises(ForeignKeyViolation):
            writer.delete("DIRECTOR", director.tid)
        assert director.tid in db.relation("DIRECTOR")
        assert self.director_tids(index, director["DNAME"]) == {director.tid}
        assert db.integrity_violations() == []

    def test_unreferenced_delete_leaves_neither(self, movies):
        db, index, writer = movies
        tid = writer.insert("DIRECTOR", {"DID": 9999, "DNAME": "Ida Lupino"})
        assert self.director_tids(index, "Ida Lupino") == {tid}
        writer.delete("DIRECTOR", tid)
        assert tid not in db.relation("DIRECTOR")
        assert self.director_tids(index, "Ida Lupino") == set()
        assert db.integrity_violations() == []


class TestUpdate:
    def test_update_replaces_postings(self, setup):
        db, index, writer = setup
        tid = writer.insert(
            "MOVIE", {"MID": 53, "TITLE": "Interiors", "YEAR": 1978, "DID": 1}
        )
        new_tid = writer.update("MOVIE", tid, {"TITLE": "Manhattan"})
        # the tuple keeps its identity: references by tid stay valid
        assert new_tid == tid
        assert index.lookup_word("interiors") == []
        (occ,) = index.lookup_word("manhattan")
        assert occ.tids == {tid}

    def test_update_preserves_untouched_postings(self, setup):
        db, index, writer = setup
        tid = writer.insert(
            "MOVIE", {"MID": 55, "TITLE": "Love and Death", "YEAR": 0, "DID": 1}
        )
        writer.update("MOVIE", tid, {"YEAR": 1975})
        (occ,) = index.lookup_word("love")
        assert tid in occ.tids

    def test_update_keeps_children_attached(self, setup, paper_graph):
        """The original delete-and-reinsert bug: updating a movie
        re-assigned its tid, so CAST/GENRE children joined to nothing."""
        db, index, writer = setup
        writer.update("MOVIE", 1, {"YEAR": 2000})
        engine = PrecisEngine(db, graph=paper_graph, index=index)
        answer = engine.ask('"Match Point"', degree=WeightThreshold(0.0))
        assert answer.found
        assert answer.rows_of("GENRE")  # children still reachable

    def test_failed_update_leaves_index_untouched(self, setup):
        db, index, writer = setup
        tid = writer.insert(
            "MOVIE", {"MID": 56, "TITLE": "Sleeper Two", "YEAR": 1999, "DID": 1}
        )
        before = {occ.tids == {tid} for occ in index.lookup_word("sleeper")}
        with pytest.raises(Exception):
            writer.update("MOVIE", tid, {"MID": 1})  # pk collision
        after = {occ.tids == {tid} for occ in index.lookup_word("sleeper")}
        assert before == after
        assert db.relation("MOVIE").fetch(tid)["MID"] == 56

    def test_update_unknown_attribute(self, setup):
        db, index, writer = setup
        tid = writer.insert(
            "MOVIE", {"MID": 54, "TITLE": "Bananas", "YEAR": 1971, "DID": 1}
        )
        with pytest.raises(KeyError):
            writer.update("MOVIE", tid, {"NOPE": 1})
        assert db.relation("MOVIE").fetch(tid)["TITLE"] == "Bananas"


class TestRelevanceRanking:
    def test_ranked_per_occurrence(self, paper_engine):
        answers = paper_engine.ask_per_occurrence(
            '"Woody Allen"', degree=WeightThreshold(0.9), rank=True
        )
        scores = [a.relevance() for a in answers]
        assert scores == sorted(scores, reverse=True)
        # the director facet carries more content (5 movies + genres)
        assert answers[0].result_schema.origin_relations == ("DIRECTOR",)
