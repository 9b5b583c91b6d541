"""Inverted-index persistence.

The paper's system keeps its inverted index alongside the database; for
a library, being able to build once and reload cheaply matters as soon
as databases get large. The format is a single JSON document mapping
words to postings; positions are preserved so phrase queries work after
a reload. A posting's position mask is written as the ascending list of
its set bits, and read back into a mask.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .inverted_index import InvertedIndex

__all__ = ["save_index", "load_index", "index_to_dict", "index_from_dict"]

#: 2: words keep letters and digits of any script whole and are folded
#: before the split (``Précis`` -> ``precis``); a version-1 index split
#: such words at the first non-ASCII letter, so it is refused rather
#: than silently missing them.
#: 3: the fold maps typographic apostrophes (U+2019, U+02BC) to ``'``,
#: so ``O’Brien`` is the one word ``o'brien``; a version-2 index split
#: it in two (or kept the U+02BC), so it is refused too
_FORMAT_VERSION = 3


def _positions(mask: int) -> list[int]:
    """The set bits of *mask*, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _mask(positions) -> int:
    """Inverse of :func:`_positions`."""
    mask = 0
    for position in positions:
        mask |= 1 << position
    return mask


def index_to_dict(index: InvertedIndex) -> dict:
    """Serialize to plain JSON-compatible data."""
    postings = {}
    for word, by_attr in index._postings.items():  # noqa: SLF001
        postings[word] = [
            {
                "relation": relation,
                "attribute": attribute,
                "tids": {
                    str(tid): _positions(mask) for tid, mask in by_tid.items()
                },
            }
            for (relation, attribute), by_tid in sorted(by_attr.items())
        ]
    return {
        "version": _FORMAT_VERSION,
        "attributes": sorted(index.indexed_attributes),
        "postings": postings,
    }


def index_from_dict(data: dict) -> InvertedIndex:
    """Inverse of :func:`index_to_dict`."""
    if data.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported index format version {data.get('version')!r}"
        )
    index = InvertedIndex()
    for relation, attribute in data.get("attributes", []):
        index._indexed_attributes.add((relation, attribute))  # noqa: SLF001
    postings = index._postings  # noqa: SLF001
    for word, entries in data.get("postings", {}).items():
        by_attr = postings.setdefault(word, {})
        for entry in entries:
            key = (entry["relation"], entry["attribute"])
            by_attr[key] = {
                int(tid): _mask(positions)
                for tid, positions in entry["tids"].items()
            }
    return index


def save_index(index: InvertedIndex, path: Union[str, Path]) -> Path:
    """Write the index to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(index_to_dict(index)))
    return path


def load_index(path: Union[str, Path]) -> InvertedIndex:
    """Load an index previously written by :func:`save_index`."""
    return index_from_dict(json.loads(Path(path).read_text()))
