"""Property-based tests for the text substrate."""

import re
import string
import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import InvertedIndex, normalize, tokenize
from repro.text.inverted_index import build_index
from repro.relational import Column, Database, DatabaseSchema, DataType, RelationSchema

words = st.text(alphabet=string.ascii_letters, min_size=1, max_size=8)
sentences = st.lists(words, min_size=0, max_size=8).map(" ".join)

#: ASCII text with the separators and apostrophes that split and join
ascii_texts = st.text(
    alphabet=string.ascii_letters + string.digits + " '-_.,\"()\t",
    max_size=40,
)
#: non-ASCII text: accented Latin, Greek (final sigma), Cyrillic, CJK,
#: Devanagari and Thai (spacing and non-spacing vowel signs), Japanese
#: voiced kana, compatibility forms (ligatures, fractions, superscripts,
#: full-width), bare combining marks, dotted capital I, mixed with ASCII
mixed_texts = st.text(
    alphabet=(
        "aZ09 '-_.éÉèüÜñçøØßİıΑλέξηςΣΩωПриветЁ漢字ﬁﬀ½²Ⅻ"
        "हिन्दीสวัสดีガ"
        "\u0301\u0308\u00a0\u2019\uff21\uff11"
    ),
    max_size=40,
)
any_texts = st.text(max_size=30)

_REFERENCE_WORD = re.compile(r"[^\W_]+(?:'[^\W_]+)*")


def reference_tokens(text):
    """The definition: fold the whole text (NFKD, marks of Unicode
    category M dropped, casefold), then split it into runs of letters
    and digits of any script, apostrophes kept inside words."""
    decomposed = unicodedata.normalize("NFKD", text)
    folded = "".join(
        ch for ch in decomposed if not unicodedata.category(ch).startswith("M")
    ).casefold()
    return [
        (word, position)
        for position, word in enumerate(_REFERENCE_WORD.findall(folded))
    ]


#: a small vocabulary, so words repeat inside values and phrases
PHRASE_WORDS = ["la", "land", "woody", "allen", "point"]
PHRASE_KEYS = [("R", "A"), ("R", "B"), ("S", "A")]


@st.composite
def phrase_corpora(draw):
    """Values under a few (relation, attribute) pairs, each pair drawing
    from its own subset of the vocabulary (so a phrase word may be
    missing under some pairs), a subset of the values to remove again,
    and a phrase of 1-4 words."""
    values = {}
    for key in PHRASE_KEYS:
        allowed = draw(
            st.lists(st.sampled_from(PHRASE_WORDS), min_size=1, unique=True)
        )
        texts = draw(
            st.lists(
                st.lists(st.sampled_from(allowed), min_size=1, max_size=6),
                max_size=6,
            )
        )
        for tid, text in enumerate(texts, start=1):
            values[key, tid] = text
    removed = (
        draw(st.sets(st.sampled_from(sorted(values))))
        if values
        else frozenset()
    )
    phrase = draw(
        st.lists(st.sampled_from(PHRASE_WORDS), min_size=1, max_size=4)
    )
    return values, removed, phrase


class TestTokenizerProperties:
    @given(sentences)
    @settings(max_examples=80, deadline=None)
    def test_positions_are_sequential(self, text):
        tokens = tokenize(text)
        assert [t.position for t in tokens] == list(range(len(tokens)))

    @given(sentences)
    @settings(max_examples=80, deadline=None)
    def test_tokens_are_normalized(self, text):
        for token in tokenize(text):
            assert token.text == normalize(token.text)

    @given(sentences)
    @settings(max_examples=50, deadline=None)
    def test_tokenize_idempotent_on_joined_tokens(self, text):
        once = [t.text for t in tokenize(text)]
        twice = [t.text for t in tokenize(" ".join(once))]
        assert once == twice

    @given(st.one_of(ascii_texts, mixed_texts, any_texts))
    @settings(max_examples=300, deadline=None)
    def test_tokenize_is_fold_then_split(self, text):
        """The ASCII shortcut (``str.lower``) and the one-pass split
        give exactly the fold-then-split definition."""
        assert [tuple(t) for t in tokenize(text)] == reference_tokens(text)

    @given(st.one_of(mixed_texts, any_texts))
    @settings(max_examples=150, deadline=None)
    def test_tokens_stay_normalized_in_any_script(self, text):
        for token in tokenize(text):
            assert token.text == normalize(token.text)
            assert [t.text for t in tokenize(token.text)] == [token.text]


class TestIndexRoundTrip:
    @given(st.lists(sentences, min_size=0, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_lookup_returns_exactly_containing_tuples(self, values):
        """For every word of every value, lookup returns precisely the

        set of tuples whose value contains the word."""
        schema = DatabaseSchema(
            [
                RelationSchema(
                    "R",
                    [
                        Column("K", DataType.INT, nullable=False),
                        Column("V", DataType.TEXT),
                    ],
                    primary_key="K",
                )
            ]
        )
        db = Database(schema)
        tids = {}
        for key, value in enumerate(values):
            tids[key] = db.insert("R", {"K": key, "V": value})
        index = build_index(db)
        vocabulary = {
            token.text for value in values for token in tokenize(value)
        }
        for word in vocabulary:
            expected = {
                tids[key]
                for key, value in enumerate(values)
                if word in {t.text for t in tokenize(value)}
            }
            got = {
                tid
                for occ in index.lookup_word(word)
                for tid in occ.tids
            }
            assert got == expected

    @given(st.lists(sentences, min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_add_then_remove_restores_empty(self, values):
        index = InvertedIndex()
        for tid, value in enumerate(values):
            index.add_value("R", "A", tid, value)
        for tid, value in enumerate(values):
            index.remove_value("R", "A", tid, value)
        assert index.vocabulary_size == 0
        assert index.postings_count() == 0

    @given(sentences)
    @settings(max_examples=60, deadline=None)
    def test_full_value_phrase_matches_itself(self, value):
        tokens = [t.text for t in tokenize(value)]
        index = InvertedIndex()
        index.add_value("R", "A", 1, value)
        if tokens:
            occs = index.lookup_phrase(tokens)
            assert occs and 1 in occs[0].tids

    @given(phrase_corpora())
    @settings(max_examples=200, deadline=None)
    def test_phrase_lookup_matches_brute_force(self, corpus):
        """lookup_phrase returns, per (relation, attribute) in sorted
        order, exactly the tuples whose value holds the phrase words
        contiguously and in order."""
        values, removed, phrase = corpus
        index = InvertedIndex()
        for (key, tid), text in values.items():
            index.add_value(*key, tid, " ".join(text))
        for key, tid in removed:
            index.remove_value(*key, tid, " ".join(values[key, tid]))
        expected: dict[tuple[str, str], set[int]] = {}
        n = len(phrase)
        for (key, tid), text in values.items():
            if (key, tid) in removed:
                continue
            starts = range(len(text) - n + 1)
            if any(text[i : i + n] == phrase for i in starts):
                expected.setdefault(key, set()).add(tid)
        got = index.lookup_phrase(phrase)
        assert [(o.relation, o.attribute) for o in got] == sorted(expected)
        assert {(o.relation, o.attribute): o.tids for o in got} == expected
