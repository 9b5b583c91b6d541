"""Unit tests for tokenization and query parsing."""

import pytest

from repro.text import normalize, query_tokens, tokenize


class TestNormalize:
    def test_casefold(self):
        assert normalize("WOODY") == "woody"

    def test_diacritics_stripped(self):
        assert normalize("Précis") == "precis"

    def test_already_normal(self):
        assert normalize("allen") == "allen"


class TestTokenize:
    def test_words_and_positions(self):
        tokens = tokenize("Woody Allen directs")
        assert [(t.text, t.position) for t in tokens] == [
            ("woody", 0),
            ("allen", 1),
            ("directs", 2),
        ]

    def test_punctuation_splits(self):
        assert [t.text for t in tokenize("Match-Point (2005)")] == [
            "match",
            "point",
            "2005",
        ]

    def test_apostrophes_kept_inside_words(self):
        assert [t.text for t in tokenize("O'Brien's movie")] == [
            "o'brien's",
            "movie",
        ]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t\n") == []

    def test_numbers_are_tokens(self):
        assert [t.text for t in tokenize("born 1935")] == ["born", "1935"]


class TestQueryTokens:
    def test_bare_words_split(self):
        assert query_tokens("woody allen") == [("woody",), ("allen",)]

    def test_quoted_phrase_is_one_token(self):
        assert query_tokens('"Woody Allen"') == [("woody", "allen")]

    def test_mixed(self):
        assert query_tokens('"Woody Allen" comedy') == [
            ("woody", "allen"),
            ("comedy",),
        ]

    def test_phrase_then_words_order_preserved(self):
        assert query_tokens('drama "match point" 2005') == [
            ("drama",),
            ("match", "point"),
            ("2005",),
        ]

    def test_empty_quotes_ignored(self):
        assert query_tokens('"" drama') == [("drama",)]

    def test_case_insensitive(self):
        assert query_tokens('"MATCH Point"') == [("match", "point")]


class TestAnyScript:
    """A value is folded whole before it is split, so letters of any
    script stay inside their word."""

    def test_accented_words_fold_whole(self):
        assert [t.text for t in tokenize("Précis café")] == [
            "precis",
            "cafe",
        ]

    def test_greek_words_are_tokens(self):
        assert [t.text for t in tokenize("Αλέξης Παπαδόπουλος")] == [
            "αλεξησ",
            "παπαδοπουλοσ",
        ]

    def test_positions_count_whole_words(self):
        tokens = tokenize("naïve Précis, 2005")
        assert [(t.text, t.position) for t in tokens] == [
            ("naive", 0),
            ("precis", 1),
            ("2005", 2),
        ]

    def test_spacing_vowel_signs_keep_words_whole(self):
        assert len(tokenize("हिन्दी भाषा")) == 2
        assert len(tokenize("สวัสดี ครับ")) == 2

    def test_query_tokens_fold_phrases_and_words(self):
        assert query_tokens('"Précis" café') == [("precis",), ("cafe",)]

    def test_ascii_normalize_is_lower(self):
        assert normalize("O'Brien MATCH 2005") == "o'brien match 2005"


class TestTypographicApostrophes:
    """U+2019 and U+02BC are spelled ``'`` by the fold, so every
    spelling of a name with an apostrophe is one and the same word."""

    @pytest.mark.parametrize(
        "text", ["O'Brien", "O’Brien", "Oʼbrien", "O’BRIEN"]
    )
    def test_each_spelling_is_one_word(self, text):
        assert [t.text for t in tokenize(text)] == ["o'brien"]

    def test_quotes_around_words_still_split(self):
        assert [t.text for t in tokenize("‘Match Point’")] == [
            "match",
            "point",
        ]
        assert [t.text for t in tokenize("Allen’s ‘Sleeper’")] == [
            "allen's",
            "sleeper",
        ]

    def test_folded_apostrophe_from_a_compatibility_letter(self):
        # NFKD turns U+0149 into U+02BC + n
        assert normalize("ŉ") == "'n"

    def test_query_phrase(self):
        assert query_tokens('"Conan O’Brien"') == [("conan", "o'brien")]
