"""Token-matching helpers above the raw inverted index.

The paper (§5.1) notes two orthogonal complications of free-form tokens:

* **homonyms** — one value naming several real-world objects (Woody Allen
  the director *and* the actor). In the absence of extra knowledge the
  system "may return multiple answers, one for each homonym"; the précis
  engine does exactly that, and :func:`group_homonyms` is where the
  per-occurrence split is computed.
* **synonyms** — several values naming one object ("W. Allen" vs "Woody
  Allen"). The paper defers to external data-cleaning work; we provide a
  lightweight :class:`SynonymMap` that rewrites query tokens before index
  lookup, which is enough to exercise that code path end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .inverted_index import InvertedIndex, Occurrence
from .tokenizer import normalize, words

__all__ = ["SynonymMap", "TokenMatch", "match_tokens", "group_homonyms"]


class SynonymMap:
    """A canonicalization map applied to query tokens before lookup.

    >>> synonyms = SynonymMap()
    >>> synonyms.add_synonym("W. Allen", "Woody Allen")
    >>> synonyms.canonicalize("w allen")
    'woody allen'
    """

    def __init__(self):
        self._canonical: dict[str, str] = {}

    def add_synonym(self, variant: str, canonical: str) -> None:
        self._canonical[self._key(variant)] = self._key(canonical)

    @staticmethod
    def _key(text: str) -> str:
        return " ".join(words(text))

    def canonicalize(self, token: str) -> str:
        key = self._key(token)
        seen = {key}
        while key in self._canonical:
            key = self._canonical[key]
            if key in seen:  # defensive: cycles in user-supplied maps
                break
            seen.add(key)
        return key

    def __len__(self):
        return len(self._canonical)


@dataclass(frozen=True)
class TokenMatch:
    """The resolved occurrences of one query token."""

    token: str
    occurrences: tuple[Occurrence, ...]

    @property
    def found(self) -> bool:
        return bool(self.occurrences)

    @property
    def relations(self) -> tuple[str, ...]:
        return tuple(sorted({occ.relation for occ in self.occurrences}))


def match_tokens(
    index: InvertedIndex,
    tokens: Iterable[str | Sequence[str]],
    synonyms: SynonymMap | None = None,
) -> list[TokenMatch]:
    """Resolve every query token against the index.

    Tokens may be strings (multi-word strings are phrase-matched) or
    pre-split word sequences. Unmatched tokens yield an empty
    :class:`TokenMatch` so the caller can report them.
    """
    out = []
    for token in tokens:
        if isinstance(token, str):
            text = token
        else:
            text = " ".join(token)
        if synonyms is not None:
            text = synonyms.canonicalize(text)
        occurrences = tuple(index.lookup_token(text))
        out.append(TokenMatch(normalize(text), occurrences))
    return out


def group_homonyms(match: TokenMatch) -> list[Occurrence]:
    """One entry per distinct occurrence of the token.

    Each (relation, attribute) occurrence is treated as a potential
    distinct real-world object — the paper's homonym policy of producing
    "one answer for each token occurrence". Ordering is deterministic
    (relation, then attribute).
    """
    return sorted(
        match.occurrences, key=lambda occ: (occ.relation, occ.attribute)
    )
