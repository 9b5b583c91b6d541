"""Unit tests for inverted-index persistence."""

import json

import pytest

from repro.text import (
    build_index,
    index_from_dict,
    index_to_dict,
    load_index,
    save_index,
)


class TestRoundtrip:
    def test_file_roundtrip_preserves_lookups(self, paper_db, tmp_path):
        index = build_index(paper_db)
        path = save_index(index, tmp_path / "idx" / "index.json")
        loaded = load_index(path)
        assert loaded.vocabulary_size == index.vocabulary_size
        assert loaded.postings_count() == index.postings_count()
        assert loaded.indexed_attributes == index.indexed_attributes
        for word in ("woody", "thriller", "match"):
            assert loaded.lookup_word(word) == index.lookup_word(word)

    def test_phrases_survive_reload(self, paper_db, tmp_path):
        index = build_index(paper_db)
        loaded = load_index(save_index(index, tmp_path / "i.json"))
        assert loaded.lookup_token("Woody Allen") == index.lookup_token(
            "Woody Allen"
        )
        assert loaded.lookup_phrase(["allen", "woody"]) == []

    def test_dict_roundtrip(self, paper_db):
        index = build_index(paper_db)
        clone = index_from_dict(index_to_dict(index))
        assert clone.lookup_word("comedy") == index.lookup_word("comedy")

    def test_reloaded_index_remains_maintainable(self, paper_db, tmp_path):
        loaded = load_index(
            save_index(build_index(paper_db), tmp_path / "i.json")
        )
        loaded.add_value("MOVIE", "TITLE", 99, "Sleeper")
        assert loaded.lookup_word("sleeper")
        loaded.remove_value("MOVIE", "TITLE", 99, "Sleeper")
        assert not loaded.lookup_word("sleeper")

    def test_version_check(self):
        with pytest.raises(ValueError):
            index_from_dict({"version": 99, "postings": {}})

    def test_version_2_file_is_refused(self, paper_db, tmp_path):
        """A version-2 index split ``O’Brien`` in two (or kept its
        U+02BC), so it would miss what the current fold finds."""
        data = index_to_dict(build_index(paper_db))
        assert data["version"] == 3
        data["version"] = 2
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="version 2"):
            load_index(path)
