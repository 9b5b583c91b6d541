"""IR-style relevance scoring over the inverted index.

The paper's related work (§2) notes that keyword-search systems rank
answers either by "the number of joins [8]" or by "IR-style
answer-relevance ranking [9]" (Hristidis, Gravano & Papakonstantinou,
VLDB 2003). The DISCOVER-style baseline supports both; this module
supplies the IR half: classic TF·IDF over attribute values, where each
(relation, attribute, tuple) value is one document.

* ``tf(word, doc)`` — occurrences of the word in the value (the set
  bits of the posting's position mask);
* ``idf(word)`` — ``ln(1 + N/df)`` with ``N`` the number of indexed
  documents and ``df`` the number of documents containing the word;
* a multi-word (phrase) token scores as the sum of its words, over
  documents that contain the *phrase*.
"""

from __future__ import annotations

import math
from typing import Sequence

from .inverted_index import InvertedIndex
from .tokenizer import normalize, words as words_of

__all__ = ["TfIdfScorer"]

#: a scored document: one attribute value of one tuple
DocKey = tuple[str, str, int]  # (relation, attribute, tid)


class TfIdfScorer:
    """TF·IDF scoring backed by a positional inverted index."""

    def __init__(self, index: InvertedIndex):
        self.index = index
        self._n_documents = max(1, self._count_documents())

    def _count_documents(self) -> int:
        docs: set[DocKey] = set()
        for word, by_attr in self.index._postings.items():  # noqa: SLF001
            for (relation, attribute), by_tid in by_attr.items():
                for tid in by_tid:
                    docs.add((relation, attribute, tid))
        return len(docs)

    # ----------------------------------------------------------------- parts

    def document_frequency(self, word: str) -> int:
        by_attr = self.index._postings.get(normalize(word), {})  # noqa: SLF001
        return sum(len(by_tid) for by_tid in by_attr.values())

    def idf(self, word: str) -> float:
        df = self.document_frequency(word)
        if df == 0:
            return 0.0
        return math.log(1.0 + self._n_documents / df)

    def tf(self, word: str, doc: DocKey) -> int:
        relation, attribute, tid = doc
        by_attr = self.index._postings.get(normalize(word), {})  # noqa: SLF001
        return by_attr.get((relation, attribute), {}).get(tid, 0).bit_count()

    # ----------------------------------------------------------------- score

    def score_token(self, token: str | Sequence[str]) -> dict[DocKey, float]:
        """TF·IDF score per document containing the token.

        Multi-word tokens are phrase-matched first (only documents
        containing the contiguous phrase score at all), then each word
        contributes ``tf·idf``.
        """
        if isinstance(token, str):
            words = words_of(token)
        else:
            words = [normalize(w) for w in token]
        if not words:
            return {}
        scores: dict[DocKey, float] = {}
        for occurrence in self.index.lookup_phrase(words):
            for tid in occurrence.tids:
                doc = (occurrence.relation, occurrence.attribute, tid)
                scores[doc] = sum(
                    self.tf(word, doc) * self.idf(word) for word in words
                )
        return scores

    def score_tuple(
        self, token: str | Sequence[str], relation: str, tid: int
    ) -> float:
        """Best score of the token over any attribute of one tuple."""
        best = 0.0
        for (rel, __, doc_tid), score in self.score_token(token).items():
            if rel == relation and doc_tid == tid:
                best = max(best, score)
        return best

    @property
    def n_documents(self) -> int:
        return self._n_documents
