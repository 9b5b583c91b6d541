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
#: full-width), bare combining marks, dotted capital I, typographic
#: quotes and apostrophes (``ŉ`` folds to U+02BC + ``n``), mixed with
#: ASCII
mixed_texts = st.text(
    alphabet=(
        "aZ09 '-_.éÉèüÜñçøØßİıΑλέξηςΣΩωПриветЁ漢字ﬁﬀ½²Ⅻ"
        "हिन्दीสวัสดีガŉ"
        "\u0301\u0308\u00a0\u2018\u2019\u02bc\uff21\uff11"
    ),
    max_size=40,
)
any_texts = st.text(max_size=30)

_REFERENCE_WORD = re.compile(r"[^\W_]+(?:'[^\W_]+)*")


def reference_tokens(text):
    """The definition: fold the whole text (NFKD, marks of Unicode
    category M dropped, casefold, U+2019 and U+02BC spelled ``'``),
    then split it into runs of letters and digits of any script,
    apostrophes kept inside words."""
    decomposed = unicodedata.normalize("NFKD", text)
    folded = (
        "".join(
            ch
            for ch in decomposed
            if not unicodedata.category(ch).startswith("M")
        )
        .casefold()
        .replace("\u2019", "'")
        .replace("\u02bc", "'")
    )
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


def reference_contiguous(positions):
    """The list-form rule the position masks replaced: word *i* of a
    phrase sits at ``start + i`` for some start, given each word's
    positions in one value."""
    later = list(enumerate(positions[1:], start=1))
    return any(
        all(start + offset in word for offset, word in later)
        for start in positions[0]
    )


#: words that repeat inside values; two fold to the same word
VALUE_WORDS = ["la", "land", "Woody", "allen", "O’Brien", "o'brien", "café"]


@st.composite
def values_and_phrases(draw):
    """Values of up to 80 words (masks past one machine word), and a
    phrase of words the values hold: a slice of one value's words, or
    words drawn from them in any order."""
    texts = draw(
        st.lists(
            st.lists(st.sampled_from(VALUE_WORDS), min_size=1, max_size=80),
            min_size=1,
            max_size=6,
        )
    )
    tokens = [[t.text for t in tokenize(" ".join(text))] for text in texts]
    if draw(st.booleans()):
        source = draw(st.sampled_from(tokens))
        start = draw(st.integers(0, len(source) - 1))
        length = draw(st.integers(1, 5))
        phrase = source[start : start + length]
    else:
        vocabulary = sorted({word for words in tokens for word in words})
        phrase = draw(
            st.lists(st.sampled_from(vocabulary), min_size=1, max_size=5)
        )
    return [" ".join(text) for text in texts], phrase


class TestPositionMasks:
    @given(values_and_phrases())
    @settings(max_examples=200, deadline=None)
    def test_phrase_lookup_matches_list_positions(self, case):
        """lookup_phrase over position masks finds exactly the values
        the list-form rule finds over ``tokenize`` positions."""
        values, phrase = case
        index = InvertedIndex()
        for tid, value in enumerate(values, start=1):
            index.add_value("R", "A", tid, value)
        expected = set()
        for tid, value in enumerate(values, start=1):
            tokens = tokenize(value)
            positions = [
                [t.position for t in tokens if t.text == word]
                for word in phrase
            ]
            if reference_contiguous(positions):
                expected.add(tid)
        got = {tid for o in index.lookup_phrase(phrase) for tid in o.tids}
        assert got == expected
