"""The inverted index of paper §4.

    "An inverted index associates each token that appears in the database
    with a list of occurrences of the token. Each occurrence is recorded
    as an attribute-relation pair, (R_j, A_lj). For each such pair, the
    list Tids_lj of ids of tuples from R_j in which A_lj includes the
    token, is also returned."

This implementation is positional, so multi-word query tokens (phrases
like ``"Woody Allen"``) match only tuples whose attribute value contains
the words *contiguously and in order* — matching the paper's treatment of
a person's name as a single token. A posting keeps a word's positions in
one value as one int, a bitmask with bit *i* set when the word is word
*i* of the value, so the index holds no container per posting: in a
value of a few words every mask is one of CPython's shared small ints,
and a long value gets a long int.

The index is maintainable (``add_value`` / ``remove_value``) and can be
(re)built from any :class:`~repro.relational.database.Database`, indexing
every TEXT column by default or an explicit attribute subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..obs import NULL_TRACER, Tracer
from ..relational.database import Database
from ..relational.datatypes import DataType, render
from .tokenizer import normalize, words as words_of

__all__ = ["Occurrence", "InvertedIndex", "build_index"]


@dataclass(frozen=True)
class Occurrence:
    """All matches of one token within one (relation, attribute) pair."""

    relation: str
    attribute: str
    tids: frozenset[int]

    def __repr__(self):
        return (
            f"Occurrence({self.relation}.{self.attribute}, "
            f"{len(self.tids)} tuples)"
        )


# posting structure: word -> (relation, attribute) -> tid -> position
# mask (bit i set when the word sits at position i of the value)
_Postings = dict[str, dict[tuple[str, str], dict[int, int]]]


class InvertedIndex:
    """Positional inverted index over the textual content of a database."""

    def __init__(self):
        self._postings: _Postings = {}
        self._indexed_attributes: set[tuple[str, str]] = set()
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Monotonic maintenance counter — the index's cache-validity
        token (see :mod:`repro.cache.versions`). Bumped by every
        :meth:`add_value` / :meth:`remove_value`, and by a bulk
        :meth:`index_database` once per value it indexed, exactly as
        one :meth:`add_value` per value would."""
        return self._epoch

    # ------------------------------------------------------------- building

    def index_database(
        self,
        db: Database,
        attributes: Optional[Iterable[tuple[str, str]]] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> "InvertedIndex":
        """Index *db* and return self.

        *attributes* is an iterable of ``(relation, attribute)`` pairs; if
        omitted, every TEXT column of every relation is indexed. Non-TEXT
        columns may be listed explicitly — their values are indexed by
        their text rendering (useful for, e.g., years).

        The postings and the epoch are those of one :meth:`add_value`
        per non-NULL value, in scan order.

        *tracer* (``repro.obs``, no-op by default) wraps the build in a
        ``"build_index"`` span counting ``attributes_indexed`` and
        ``values_indexed``.
        """
        if attributes is None:
            pairs = [
                (rs.name, col.name)
                for rs in db.schema
                for col in rs.columns
                if col.dtype is DataType.TEXT
            ]
        else:
            pairs = list(attributes)
        by_relation: dict[str, list[str]] = {}
        for relation, attribute in pairs:
            db.relation(relation).schema.column(attribute)  # validate
            self._indexed_attributes.add((relation, attribute))
            by_relation.setdefault(relation, []).append(attribute)
        with tracer.span("build_index"):
            values_indexed = 0
            for relation, attrs in by_relation.items():
                rel = db.relation(relation)
                columns = [
                    ((relation, a), rel.schema.position(a)) for a in attrs
                ]
                # one raw storage scan per relation: index building is
                # maintenance work, outside the paper's metered cost model
                for tid, stored in rel.store.scan():
                    for key, pos in columns:
                        value = stored[pos]
                        if value is None:
                            continue
                        text = value if type(value) is str else render(value)
                        self._post(key, tid, words_of(text))
                        values_indexed += 1
            self._epoch += values_indexed
            tracer.count("attributes_indexed", len(pairs))
            tracer.count("values_indexed", values_indexed)
        return self

    def add_value(
        self, relation: str, attribute: str, tid: int, text: str
    ) -> None:
        """Index one attribute value."""
        self._epoch += 1
        key = (relation, attribute)
        self._indexed_attributes.add(key)
        self._post(key, tid, words_of(text))

    def _post(self, key: tuple[str, str], tid: int, words: list[str]) -> None:
        """Post word *i* of *words* at position *i* of *tid*'s value:
        set bit *i* of the word's position mask."""
        postings = self._postings
        for position, word in enumerate(words):
            bit = 1 << position
            by_attr = postings.get(word)
            if by_attr is None:
                postings[word] = {key: {tid: bit}}
                continue
            by_tid = by_attr.get(key)
            if by_tid is None:
                by_attr[key] = {tid: bit}
            else:
                by_tid[tid] = by_tid.get(tid, 0) | bit

    def remove_value(
        self, relation: str, attribute: str, tid: int, text: str
    ) -> None:
        """Remove a previously indexed value (must pass the same text)."""
        self._epoch += 1
        key = (relation, attribute)
        for word in words_of(text):
            by_attr = self._postings.get(word)
            if not by_attr:
                continue
            by_tid = by_attr.get(key)
            if not by_tid:
                continue
            by_tid.pop(tid, None)
            if not by_tid:
                del by_attr[key]
            if not by_attr:
                del self._postings[word]

    # ------------------------------------------------------------- lookups

    def lookup_word(self, word: str) -> list[Occurrence]:
        """Occurrences of a single word, grouped by (relation, attribute)."""
        by_attr = self._postings.get(normalize(word), {})
        return [
            Occurrence(relation, attribute, frozenset(by_tid))
            for (relation, attribute), by_tid in sorted(by_attr.items())
        ]

    def lookup_phrase(self, words: Sequence[str]) -> list[Occurrence]:
        """Occurrences where *words* appear contiguously, in order.

        Under each (relation, attribute) the words' tid sets are
        intersected first, smallest first, and position masks are
        checked only on the tids all the words share."""
        words = [normalize(w) for w in words]
        if not words:
            return []
        if len(words) == 1:
            return self.lookup_word(words[0])
        postings = [self._postings.get(word) for word in words]
        if not all(postings):
            return []
        out: list[Occurrence] = []
        for key in sorted(postings[0]):
            if not all(key in by_attr for by_attr in postings[1:]):
                continue
            by_tid = [by_attr[key] for by_attr in postings]
            smallest, *others = sorted(by_tid, key=len)
            # a key-view intersection walks its smaller side
            common = smallest.keys()
            for other in others:
                common = common & other.keys()
            hits = frozenset(
                tid
                for tid in common
                if _contiguous([masks[tid] for masks in by_tid])
            )
            if hits:
                out.append(Occurrence(key[0], key[1], hits))
        return out

    def lookup_token(self, token: str | Sequence[str]) -> list[Occurrence]:
        """Occurrences of a précis query token (word or phrase).

        Accepts either a raw string (tokenized here; multi-word strings
        become phrases) or a pre-tokenized word sequence.
        """
        if isinstance(token, str):
            return self.lookup_phrase(words_of(token))
        return self.lookup_phrase(list(token))

    def contains_word(self, word: str) -> bool:
        return normalize(word) in self._postings

    # ------------------------------------------------------------- stats

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    @property
    def indexed_attributes(self) -> frozenset[tuple[str, str]]:
        return frozenset(self._indexed_attributes)

    def postings_count(self) -> int:
        """Total number of (word, attribute, tid) postings."""
        return sum(
            len(by_tid)
            for by_attr in self._postings.values()
            for by_tid in by_attr.values()
        )

    def __repr__(self):
        return (
            f"InvertedIndex({self.vocabulary_size} words, "
            f"{self.postings_count()} postings, "
            f"{len(self._indexed_attributes)} attributes)"
        )


def _contiguous(masks: list[int]) -> bool:
    """Whether word *i* of a phrase sits at ``start + i`` for some start,
    given each word's position mask in one value: shifting word *i*'s
    mask down by *i* lines its positions up with the starts, and the
    AND keeps the starts every word agrees on."""
    starts = masks[0]
    for offset, mask in enumerate(masks[1:], start=1):
        starts &= mask >> offset
    return bool(starts)


def build_index(
    db: Database,
    attributes: Optional[Iterable[tuple[str, str]]] = None,
    tracer: Tracer = NULL_TRACER,
) -> InvertedIndex:
    """Convenience: ``InvertedIndex().index_database(db, attributes)``."""
    return InvertedIndex().index_database(db, attributes, tracer=tracer)
