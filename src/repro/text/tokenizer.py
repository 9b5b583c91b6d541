"""Tokenization of attribute values and query strings.

The inverted index and the query front-end must agree on what a token is;
both use this module. A value is folded once, as a whole (NFKD, combining
marks dropped, casefold, and the typographic apostrophes U+2019 and
U+02BC mapped to ``'``: ``Précis`` -> ``precis``, ``O’Brien`` ->
``o'brien``; plain ``str.lower`` for ASCII text, where the fold is
exactly that), and then split once: a word is a run of letters and
digits of any script, and apostrophes inside words are kept
(``o'brien`` is one token). Everything else splits, the left quote
U+2018 too, so ``‘Match Point’`` gives ``match``, ``point``. A
combining mark is any character of Unicode category M, the spacing
vowel signs of Devanagari or Thai too, so that no mark left between two
letters splits a word. Positions are preserved so the index can answer
phrase queries such as the paper's running example token ``"Woody
Allen"``.
"""

from __future__ import annotations

import re
import unicodedata
from typing import NamedTuple

__all__ = ["Token", "tokenize", "normalize", "query_tokens"]

#: letters and digits of any script (``\w`` without the underscore)
_WORD_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)*")
_MARKS = frozenset({"Mn", "Mc", "Me"})
#: right single quotation mark and modifier letter apostrophe -> ``'``;
#: mapped after the fold, since NFKD turns ``ŉ`` into U+02BC + ``n``
_APOSTROPHES = str.maketrans({"\u2019": "'", "\u02bc": "'"})


def normalize(text: str) -> str:
    """Case-fold and strip diacritics: ``Précis`` -> ``precis``, and
    spell typographic apostrophes ``'``: ``O’Brien`` -> ``o'brien``."""
    if text.isascii():
        return text.lower()
    decomposed = unicodedata.normalize("NFKD", text)
    category = unicodedata.category
    stripped = "".join(
        [ch for ch in decomposed if category(ch) not in _MARKS]
    )
    return stripped.casefold().translate(_APOSTROPHES)


def words(text: str) -> list[str]:
    """The normalized words of *text*, in order: one fold, one split."""
    return _WORD_RE.findall(normalize(text))


class Token(NamedTuple):
    """A normalized word with its ordinal position in the source text."""

    text: str
    position: int


def tokenize(text: str) -> list[Token]:
    """Split *text* into normalized, positioned tokens.

    >>> [t.text for t in tokenize("Woody Allen's 'Match Point' (2005)")]
    ['woody', "allen's", 'match', 'point', '2005']
    >>> [t.text for t in tokenize("Précis café")]
    ['precis', 'cafe']
    >>> [t.text for t in tokenize("O’Brien in ‘Match Point’")]
    ["o'brien", 'in', 'match', 'point']
    """
    if not text:
        return []
    return [Token(word, position) for position, word in enumerate(words(text))]


def query_tokens(query: str) -> list[tuple[str, ...]]:
    """Parse a free-form précis query string into tokens.

    The paper's query model is a set of tokens ``Q = {k1, …, km}`` where a
    token may be a multi-word value such as ``Woody Allen``. We follow the
    common convention: double-quoted segments form one (phrase) token,
    everything else splits on words.

    >>> query_tokens('"Woody Allen" comedy')
    [('woody', 'allen'), ('comedy',)]
    """
    out: list[tuple[str, ...]] = []
    pos = 0
    for match in re.finditer(r'"([^"]*)"', query):
        for word in words(query[pos : match.start()]):
            out.append((word,))
        phrase = tuple(words(match.group(1)))
        if phrase:
            out.append(phrase)
        pos = match.end()
    for word in words(query[pos:]):
        out.append((word,))
    return out
