"""Unit tests for profiles and the registry (§3.1 personalization)."""

import json
from dataclasses import dataclass

import pytest

from repro.core import (
    CardinalityConstraint,
    CompositeDegree,
    Deadline,
    MaxPathLength,
    MaxTuplesPerRelation,
    WeightThreshold,
)
from repro.graph import GraphError, WeightOverlay
from repro.personalization import Profile, ProfileRegistry


class TestProfile:
    def test_weight_setters(self):
        profile = Profile("p")
        profile.set_projection_weight("R", "A", 0.3)
        profile.set_join_weight("R", "S", 0.6)
        assert profile.weights == {
            ("proj", "R", "A"): 0.3,
            ("join", "R", "S"): 0.6,
        }

    def test_personalize_applies_overrides(self, paper_graph):
        profile = Profile("fan").set_join_weight("MOVIE", "GENRE", 0.2)
        personalized = profile.personalize(paper_graph)
        assert personalized.join_edge("MOVIE", "GENRE").weight == 0.2
        assert paper_graph.join_edge("MOVIE", "GENRE").weight == 0.9

    def test_personalize_without_weights_returns_same_graph(self, paper_graph):
        profile = Profile("empty")
        assert profile.personalize(paper_graph) is paper_graph

    def test_merged_with_overrides(self):
        base = Profile(
            "designer",
            weights={("proj", "R", "A"): 0.5},
            degree=WeightThreshold(0.8),
        )
        user = Profile(
            "user",
            weights={("proj", "R", "A"): 0.9, ("proj", "R", "B"): 0.2},
            cardinality=MaxTuplesPerRelation(3),
        )
        merged = base.merged_with(user)
        assert merged.weights[("proj", "R", "A")] == 0.9
        assert merged.weights[("proj", "R", "B")] == 0.2
        assert merged.degree == WeightThreshold(0.8)
        assert merged.cardinality == MaxTuplesPerRelation(3)
        assert merged.name == "designer+user"


class TestOverlayConversion:
    def test_overlay_returns_weight_overlay(self, paper_graph):
        profile = Profile("fan").set_join_weight("MOVIE", "GENRE", 0.2)
        overlay = profile.overlay(paper_graph)
        assert isinstance(overlay, WeightOverlay)
        assert overlay.base is paper_graph
        assert overlay.join_edge("MOVIE", "GENRE").weight == 0.2

    def test_personalize_returns_overlay_not_clone(self, paper_graph):
        profile = Profile("fan").set_join_weight("MOVIE", "GENRE", 0.2)
        personalized = profile.personalize(paper_graph)
        assert isinstance(personalized, WeightOverlay)
        assert personalized.base is paper_graph

    def test_empty_profile_overlay_is_noop(self, paper_graph):
        overlay = Profile("empty").overlay(paper_graph)
        assert isinstance(overlay, WeightOverlay)
        assert overlay.fingerprint() is None

    def test_overlay_validates_edges_against_graph(self, paper_graph):
        profile = Profile("bad").set_join_weight("MOVIE", "NOPE", 0.2)
        with pytest.raises(GraphError):
            profile.overlay(paper_graph)

    def test_equal_profiles_produce_equal_fingerprints(self, paper_graph):
        a = (
            Profile("a")
            .set_join_weight("MOVIE", "GENRE", 0.2)
            .set_projection_weight("MOVIE", "TITLE", 0.4)
        )
        b = (  # same weights, opposite insertion order
            Profile("b")
            .set_projection_weight("MOVIE", "TITLE", 0.4)
            .set_join_weight("MOVIE", "GENRE", 0.2)
        )
        assert (
            a.overlay(paper_graph).fingerprint()
            == b.overlay(paper_graph).fingerprint()
        )


class TestSerde:
    def roundtrip(self, profile):
        # through actual JSON text, as a profile store would
        return Profile.from_dict(json.loads(json.dumps(profile.to_dict())))

    def test_roundtrip_weights_and_metadata(self):
        profile = Profile(
            "fan",
            weights={
                ("proj", "MOVIE", "TITLE"): 0.4,
                ("join", "MOVIE", "GENRE"): 0.2,
            },
            description="genre-averse movie fan",
        )
        revived = self.roundtrip(profile)
        assert revived.name == profile.name
        assert revived.weights == profile.weights
        assert revived.description == profile.description
        assert revived.degree is None
        assert revived.cardinality is None

    def test_roundtrip_constraints(self):
        profile = Profile(
            "strict",
            degree=CompositeDegree(WeightThreshold(0.8), MaxPathLength(2)),
            cardinality=MaxTuplesPerRelation(3),
        )
        revived = self.roundtrip(profile)
        assert revived.degree == profile.degree
        assert revived.cardinality == profile.cardinality

    def test_roundtrip_preserves_overlay_identity(self, paper_graph):
        profile = Profile(
            "fan",
            weights={
                ("join", "MOVIE", "GENRE"): 0.2,
                ("proj", "MOVIE", "TITLE"): 0.4,
            },
        )
        original = profile.overlay(paper_graph)
        revived = self.roundtrip(profile).overlay(paper_graph)
        assert revived.canonical_patches() == original.canonical_patches()
        assert revived.fingerprint() == original.fingerprint()

    def test_unknown_version_rejected(self):
        with pytest.raises(GraphError):
            Profile.from_dict({"version": 99, "name": "x", "weights": []})

    def test_bad_edge_key_rejected(self):
        with pytest.raises(GraphError):
            Profile.from_dict(
                {
                    "version": 1,
                    "name": "x",
                    "weights": [[["bogus", "A", "B"], 0.5]],
                }
            )

    def test_unknown_constraint_type_rejected(self):
        with pytest.raises(GraphError):
            Profile.from_dict(
                {
                    "version": 1,
                    "name": "x",
                    "weights": [],
                    "degree": {"type": "NoSuchConstraint", "args": {}},
                }
            )

    def test_stateful_constraint_not_serializable(self):
        @dataclass(frozen=True)
        class WithinDeadline(CardinalityConstraint):
            """A constraint holding live state: a request's deadline."""

            deadline: Deadline

            def budget_for(self, relation, cardinalities):
                return 0 if self.deadline.expired() else None

            def exhausted(self, cardinalities):
                return self.deadline.expired()

            def describe(self):
                return "within deadline"

        profile = Profile(
            "live", cardinality=WithinDeadline(Deadline.after(1.0))
        )
        with pytest.raises(ValueError, match="not serializable"):
            profile.to_dict()


class TestRegistry:
    def test_register_and_get(self):
        registry = ProfileRegistry()
        registry.register(Profile("a"))
        assert registry.get("a").name == "a"
        assert "a" in registry
        assert registry.names() == ("a",)
        assert len(registry) == 1

    def test_duplicate_rejected(self):
        registry = ProfileRegistry()
        registry.register(Profile("a"))
        with pytest.raises(KeyError):
            registry.register(Profile("a"))

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            ProfileRegistry().get("nope")
