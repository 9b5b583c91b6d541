"""Unit tests for the positional inverted index (§4)."""

import hashlib
import json

import pytest

from repro.core import PrecisQuery
from repro.datasets import (
    generate_library_database,
    generate_movies_database,
    generate_university_database,
    paper_instance,
)
from repro.relational import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    RelationSchema,
)
from repro.relational.datatypes import render
from repro.text import (
    InvertedIndex,
    TfIdfScorer,
    build_index,
    index_from_dict,
    index_to_dict,
    match_tokens,
)


@pytest.fixture()
def index(paper_db):
    return build_index(paper_db)


class TestBuild:
    def test_indexes_all_text_columns_by_default(self, index):
        attrs = index.indexed_attributes
        assert ("MOVIE", "TITLE") in attrs
        assert ("DIRECTOR", "DNAME") in attrs
        # YEAR is INT, not indexed by default
        assert ("MOVIE", "YEAR") not in attrs

    def test_explicit_attribute_subset(self, paper_db):
        idx = build_index(paper_db, [("MOVIE", "TITLE"), ("MOVIE", "YEAR")])
        assert idx.indexed_attributes == {
            ("MOVIE", "TITLE"),
            ("MOVIE", "YEAR"),
        }
        # non-TEXT columns are indexed via their rendering
        assert idx.lookup_word("2005")

    def test_vocabulary_and_postings_counts(self, index):
        assert index.vocabulary_size > 20
        assert index.postings_count() >= index.vocabulary_size


class TestWordLookup:
    def test_occurrences_grouped_by_attribute(self, index):
        occs = index.lookup_word("woody")
        pairs = {(o.relation, o.attribute) for o in occs}
        assert pairs == {("DIRECTOR", "DNAME"), ("ACTOR", "ANAME")}

    def test_case_insensitive(self, index):
        assert index.lookup_word("WOODY") == index.lookup_word("woody")

    def test_missing_word(self, index):
        assert index.lookup_word("zzzz") == []

    def test_contains_word(self, index):
        assert index.contains_word("Match")
        assert not index.contains_word("nonexistent")

    def test_tids_are_exact(self, index, paper_db):
        (occ,) = [
            o for o in index.lookup_word("comedy") if o.relation == "GENRE"
        ]
        genre_rel = paper_db.relation("GENRE")
        expected = {
            tid
            for tid in genre_rel.tids()
            if genre_rel.fetch(tid)["GENRE"] == "Comedy"
        }
        assert set(occ.tids) == expected


class TestPhraseLookup:
    def test_contiguous_phrase_matches(self, index):
        occs = index.lookup_phrase(["woody", "allen"])
        assert {o.relation for o in occs} == {"DIRECTOR", "ACTOR"}

    def test_order_matters(self, index):
        assert index.lookup_phrase(["allen", "woody"]) == []

    def test_gap_breaks_phrase(self, index):
        # "The Curse of the Jade Scorpion": "curse scorpion" not adjacent
        assert index.lookup_phrase(["curse", "scorpion"]) == []
        assert index.lookup_phrase(["jade", "scorpion"])

    def test_single_word_phrase_equals_word(self, index):
        assert index.lookup_phrase(["woody"]) == index.lookup_word("woody")

    def test_empty_phrase(self, index):
        assert index.lookup_phrase([]) == []

    def test_lookup_token_string_becomes_phrase(self, index):
        occs = index.lookup_token("Woody Allen")
        assert {o.relation for o in occs} == {"DIRECTOR", "ACTOR"}

    def test_lookup_token_sequence(self, index):
        occs = index.lookup_token(("match", "point"))
        assert {o.relation for o in occs} == {"MOVIE"}


class TestMaintenance:
    def test_add_and_remove_value(self):
        idx = InvertedIndex()
        idx.add_value("R", "A", 1, "hello world")
        idx.add_value("R", "A", 2, "hello there")
        assert {t for o in idx.lookup_word("hello") for t in o.tids} == {1, 2}
        idx.remove_value("R", "A", 1, "hello world")
        assert {t for o in idx.lookup_word("hello") for t in o.tids} == {2}
        assert idx.lookup_word("world") == []

    def test_remove_unknown_is_noop(self):
        idx = InvertedIndex()
        idx.remove_value("R", "A", 1, "never added")
        assert idx.vocabulary_size == 0

    def test_repeated_word_positions(self):
        idx = InvertedIndex()
        idx.add_value("R", "A", 1, "la la land")
        occs = idx.lookup_phrase(["la", "la"])
        assert occs and 1 in occs[0].tids
        assert idx.lookup_phrase(["la", "land"])
        assert idx.lookup_phrase(["land", "la"]) == []


def _people_db(names, backend="memory"):
    schema = DatabaseSchema(
        [
            RelationSchema(
                "PERSON",
                [
                    Column("PID", DataType.INT, nullable=False),
                    Column("NAME", DataType.TEXT),
                    Column("BORN", DataType.INT),
                ],
                primary_key="PID",
            )
        ]
    )
    return Database.from_rows(
        schema,
        {
            "PERSON": [
                [pid, name, 1900 + pid]
                for pid, name in enumerate(names, start=1)
            ]
        },
        backend=backend,
    )


class TestAnyScript:
    """Stored words with non-ASCII letters are indexed whole and folded,
    so plain, accented and differently cased queries all find them."""

    @pytest.fixture()
    def index(self, backend):
        db = _people_db(
            ["Précis café", "Αλέξης Παπαδόπουλος", "plain ascii"], backend
        )
        yield build_index(db)
        db.close()

    def _found(self, index, query):
        (match,) = match_tokens(index, PrecisQuery.parse(query).tokens)
        return {t for o in match.occurrences for t in o.tids}

    @pytest.mark.parametrize(
        "query", ["precis", '"precis cafe"', '"Précis Café"', "CAFÉ"]
    )
    def test_folded_value_found(self, index, query):
        assert self._found(index, query) == {1}

    @pytest.mark.parametrize(
        "query", ['"Αλέξης Παπαδόπουλος"', '"ΑΛΕΞΗΣ παπαδοπουλος"']
    )
    def test_greek_name_phrase_matches(self, index, query):
        assert self._found(index, query) == {2}

    def test_greek_phrase_order_matters(self, index):
        assert self._found(index, '"Παπαδόπουλος Αλέξης"') == set()


def _one_add_value_per_value(db, attributes=None):
    """The reference build: one add_value per non-NULL value, in the
    order index_database scans them."""
    index = InvertedIndex()
    if attributes is None:
        attributes = [
            (rs.name, col.name)
            for rs in db.schema
            for col in rs.columns
            if col.dtype is DataType.TEXT
        ]
    by_relation = {}
    for relation, attribute in attributes:
        by_relation.setdefault(relation, []).append(attribute)
    for relation, attrs in by_relation.items():
        rel = db.relation(relation)
        for tid, stored in rel.store.scan():
            for attribute in attrs:
                value = stored[rel.schema.position(attribute)]
                if value is not None:
                    index.add_value(relation, attribute, tid, render(value))
    return index


class TestBulkBuild:
    """index_database posts exactly what one add_value per value does,
    and bumps the epoch by the number of values it indexed."""

    @pytest.mark.parametrize(
        "attributes",
        [None, [("MOVIE", "TITLE"), ("MOVIE", "YEAR"), ("GENRE", "GENRE")]],
    )
    def test_same_postings_and_epoch(self, backend, attributes):
        db = generate_movies_database(n_movies=60, seed=5, backend=backend)
        bulk = build_index(db, attributes)
        reference = _one_add_value_per_value(db, attributes)
        assert bulk._postings == reference._postings
        assert bulk.epoch == reference.epoch > 0
        assert bulk.indexed_attributes == reference.indexed_attributes
        db.close()

    def test_repeated_and_non_ascii_values(self):
        names = ["Précis café", "Précis café", "la la land", "", "Ωμέγα"] * 3
        db = _people_db(names)
        bulk = build_index(db)
        reference = _one_add_value_per_value(db)
        assert bulk._postings == reference._postings
        assert bulk.epoch == reference.epoch == len(names)

    def test_epoch_counts_values_not_words(self):
        db = _people_db(["a b c", None, "d"])
        assert build_index(db).epoch == 2


#: sha256 of the sorted-key, compact JSON of ``index_to_dict`` without
#: its ``version``, recorded while postings still held position lists
#: (index format 2): the position masks serialize to the same document
PINNED_INDEX_DIGESTS = [
    (
        "paper instance",
        lambda backend: paper_instance(backend=backend),
        "d89f10481194f911c04e011afff0300d9248db34aec079429a1761514cb9cdde",
    ),
    (
        "init-demo, 2,000 movies, seed 1",
        lambda backend: generate_movies_database(
            n_movies=2000, seed=1, backend=backend
        ),
        "daa8f66de647087b9881348da08a1fe42c614409c31b777e93ee5d484297374b",
    ),
]


def _index_digest(index):
    data = index_to_dict(index)
    del data["version"]
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class TestPinnedPostings:
    """The masks hold exactly the positions the lists held."""

    @pytest.mark.parametrize(
        "make, digest",
        [case[1:] for case in PINNED_INDEX_DIGESTS],
        ids=[case[0] for case in PINNED_INDEX_DIGESTS],
    )
    def test_serialized_index_unchanged(self, backend, make, digest):
        db = make(backend)
        index = build_index(db)
        db.close()
        assert _index_digest(index) == digest
        assert _index_digest(index_from_dict(index_to_dict(index))) == digest


class TestLongValue:
    """A value longer than any machine word: its masks are long ints."""

    #: 3,000 words; ``echo`` is every sixth, 500 times, the last one
    #: the value's last word; every other word is unique
    WORDS = [
        "echo" if position % 6 == 5 else f"w{position}"
        for position in range(3000)
    ]

    @pytest.fixture()
    def index(self):
        index = InvertedIndex()
        index.add_value("R", "A", 1, " ".join(self.WORDS))
        return index

    def test_phrase_matches_at_the_end(self, index):
        (occurrence,) = index.lookup_phrase(["w2998", "echo"])
        assert occurrence.tids == {1}
        assert index.lookup_phrase(["w2997", "w2998", "echo"])
        assert index.lookup_phrase(["echo", "w2998"]) == []
        assert index.lookup_phrase(["w2998", "w2999"]) == []

    def test_tf_counts_every_occurrence(self, index):
        scorer = TfIdfScorer(index)
        assert scorer.tf("echo", ("R", "A", 1)) == 500
        assert scorer.tf("w2998", ("R", "A", 1)) == 1

    def test_positions_survive_serialization(self, index):
        data = index_to_dict(index)
        (entry,) = data["postings"]["echo"]
        assert entry["tids"] == {"1": list(range(5, 3000, 6))}
        clone = index_from_dict(data)
        assert clone._postings == index._postings
        assert clone.lookup_phrase(["w2998", "echo"])


class TestTypographicApostrophes:
    """``O'Brien``, ``O’Brien`` (U+2019) and ``Oʼbrien`` (U+02BC) are
    one word: each spelling, stored or asked, finds the others."""

    SPELLINGS = ["Conan O'Brien", "Conan O’Brien", "Conan Oʼbrien"]

    @pytest.fixture()
    def index(self, backend):
        db = _people_db(self.SPELLINGS + ["Obrien"], backend)
        yield build_index(db)
        db.close()

    def _found(self, index, query):
        (match,) = match_tokens(index, PrecisQuery.parse(query).tokens)
        return {t for o in match.occurrences for t in o.tids}

    @pytest.mark.parametrize(
        "query",
        ["O'Brien", "O’Brien", "oʼbrien", '"Conan O’BRIEN"', "\"o'brien\""],
    )
    def test_each_spelling_finds_the_others(self, index, query):
        assert self._found(index, query) == {1, 2, 3}

    @pytest.mark.parametrize(
        "make",
        [
            paper_instance,
            lambda: generate_movies_database(n_movies=2000, seed=1),
            lambda: generate_movies_database(n_movies=200, seed=5),
            generate_university_database,
            generate_library_database,
        ],
        ids=["paper", "movies-2000", "movies-200", "university", "library"],
    )
    def test_no_generated_value_holds_one(self, make):
        """So the fold leaves the bundled data's index, and every golden
        digest, as they were."""
        db = make()
        for rel in db:
            for __, stored in rel.store.scan():
                for value in stored:
                    if isinstance(value, str):
                        assert "\u2019" not in value, (rel.name, value)
                        assert "\u02bc" not in value, (rel.name, value)
