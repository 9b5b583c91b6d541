"""Weight-fingerprint canonicalization and its cache-key consequences.

The fingerprint is the tenant-identity component of both cache keys:
equal effective overlays must produce equal keys (whatever insertion
order or no-op noise produced them), and an ε-different weight — down
to one ULP — must produce a distinct key. Key-level tests are pure;
the engine-level tests pin the behaviour end to end on every storage
backend.
"""

from __future__ import annotations

import math

import pytest

from repro.cache import CacheConfig, answer_key, plan_key
from repro.core import PrecisEngine, PrecisQuery, WeightThreshold
from repro.datasets import generate_movies_database, movies_graph
from repro.graph import WeightOverlay, weight_fingerprint
from repro.storage import BACKEND_NAMES

TITLE = ("proj", "MOVIE", "TITLE")
YEAR = ("proj", "MOVIE", "YEAR")
GENRE = ("join", "MOVIE", "GENRE")


@pytest.fixture()
def base():
    return movies_graph()


# ------------------------------------------------------------ fingerprint


class TestFingerprintCanonicalization:
    def test_equal_overlays_equal_fingerprint(self, base):
        a = WeightOverlay(base, {TITLE: 0.25, GENRE: 0.5})
        b = WeightOverlay(base, {TITLE: 0.25, GENRE: 0.5})
        assert a.fingerprint() == b.fingerprint()

    def test_insertion_order_ignored(self, base):
        forward = WeightOverlay(base, {TITLE: 0.25, YEAR: 0.4, GENRE: 0.5})
        backward = WeightOverlay(base, {GENRE: 0.5, YEAR: 0.4, TITLE: 0.25})
        assert forward.fingerprint() == backward.fingerprint()

    def test_noop_patches_ignored(self, base):
        base_title = base.projection_edge("MOVIE", "TITLE").weight
        effective = WeightOverlay(base, {GENRE: 0.5})
        with_noise = WeightOverlay(base, {GENRE: 0.5, TITLE: base_title})
        assert with_noise.fingerprint() == effective.fingerprint()

    def test_noop_overlay_fingerprints_as_base(self, base):
        base_title = base.projection_edge("MOVIE", "TITLE").weight
        noop = WeightOverlay(base, {TITLE: base_title})
        assert noop.fingerprint() is None
        assert weight_fingerprint(noop) is None
        assert weight_fingerprint(base) is None

    def test_epsilon_different_weight_distinct(self, base):
        a = WeightOverlay(base, {TITLE: 0.25})
        b = WeightOverlay(base, {TITLE: 0.25 + 1e-12})
        assert a.fingerprint() != b.fingerprint()

    def test_one_ulp_apart_distinct(self, base):
        weight = 0.25
        nudged = math.nextafter(weight, 1.0)
        a = WeightOverlay(base, {TITLE: weight})
        b = WeightOverlay(base, {TITLE: nudged})
        assert nudged != weight
        assert a.fingerprint() != b.fingerprint()

    def test_different_edge_same_weight_distinct(self, base):
        a = WeightOverlay(base, {TITLE: 0.25})
        b = WeightOverlay(base, {YEAR: 0.25})
        assert a.fingerprint() != b.fingerprint()

    def test_int_and_float_weights_coincide(self, base):
        # 0 and 0.0 are the same IEEE double — same tenant identity
        a = WeightOverlay(base, {TITLE: 0})
        b = WeightOverlay(base, {TITLE: 0.0})
        assert a.fingerprint() == b.fingerprint()


# -------------------------------------------------------------- key level


class TestKeys:
    def test_plan_keys_share_on_equal_fingerprint(self, base):
        fp1 = WeightOverlay(base, {TITLE: 0.25, GENRE: 0.5}).fingerprint()
        fp2 = WeightOverlay(base, {GENRE: 0.5, TITLE: 0.25}).fingerprint()
        degree = WeightThreshold(0.5)
        assert plan_key(("MOVIE",), degree, fp1) == plan_key(
            ("MOVIE",), degree, fp2
        )

    def test_plan_keys_split_on_epsilon(self, base):
        fp1 = WeightOverlay(base, {TITLE: 0.25}).fingerprint()
        fp2 = WeightOverlay(base, {TITLE: 0.25 + 1e-12}).fingerprint()
        degree = WeightThreshold(0.5)
        assert plan_key(("MOVIE",), degree, fp1) != plan_key(
            ("MOVIE",), degree, fp2
        )

    def test_base_plan_key_distinct_from_overlay(self, base):
        degree = WeightThreshold(0.5)
        fp = WeightOverlay(base, {TITLE: 0.25}).fingerprint()
        assert plan_key(("MOVIE",), degree, None) != plan_key(
            ("MOVIE",), degree, fp
        )

    def test_answer_keys_mirror_fingerprint(self, base):
        query = PrecisQuery.parse("midnight")
        degree = WeightThreshold(0.5)
        fp1 = WeightOverlay(base, {TITLE: 0.25, GENRE: 0.5}).fingerprint()
        fp2 = WeightOverlay(base, {GENRE: 0.5, TITLE: 0.25}).fingerprint()
        fp3 = WeightOverlay(base, {TITLE: 0.25 + 1e-12}).fingerprint()
        same = answer_key(query, degree, None, "auto", fp1, True, False)
        permuted = answer_key(query, degree, None, "auto", fp2, True, False)
        eps = answer_key(query, degree, None, "auto", fp3, True, False)
        assert same == permuted
        assert same != eps


# ---------------------------------------------------------- engine level


@pytest.mark.parametrize("engine_backend", BACKEND_NAMES)
class TestEngineSharing:
    """The acceptance criterion, per backend: tenants with identical
    overlays share one plan-cache entry (second ask is a counted hit);
    an ε-different tenant does not."""

    def _engine(self, engine_backend, answers=False):
        # answer caching off by default here: an answer-cache hit would
        # short-circuit ask() before the plan cache is ever consulted,
        # hiding exactly the plan-sharing behaviour under test
        db = generate_movies_database(
            n_movies=40, seed=5, backend=engine_backend
        )
        return PrecisEngine(
            db,
            graph=movies_graph(),
            cache=CacheConfig(answers=answers),
        )

    def test_identical_overlays_share_plan_entries(self, engine_backend):
        engine = self._engine(engine_backend)
        stats = engine.cache.plans.stats
        tenant_a = {TITLE: 0.25, GENRE: 0.5}
        tenant_b = {GENRE: 0.5, TITLE: 0.25}  # same weights, permuted
        engine.ask("drama", degree=WeightThreshold(0.5), weights=tenant_a)
        misses = stats.misses
        hits = stats.hits
        engine.ask("drama", degree=WeightThreshold(0.5), weights=tenant_b)
        assert stats.hits == hits + 1
        assert stats.misses == misses

    def test_epsilon_tenant_does_not_share(self, engine_backend):
        engine = self._engine(engine_backend)
        stats = engine.cache.plans.stats
        engine.ask(
            "drama", degree=WeightThreshold(0.5), weights={TITLE: 0.25}
        )
        hits = stats.hits
        misses = stats.misses
        engine.ask(
            "drama",
            degree=WeightThreshold(0.5),
            weights={TITLE: 0.25 + 1e-12},
        )
        assert stats.hits == hits
        assert stats.misses == misses + 1

    def test_noop_overlay_shares_with_base(self, engine_backend):
        engine = self._engine(engine_backend)
        stats = engine.cache.plans.stats
        engine.ask("drama", degree=WeightThreshold(0.5))
        hits = stats.hits
        base_title = engine.graph.projection_edge("MOVIE", "TITLE").weight
        engine.ask(
            "drama",
            degree=WeightThreshold(0.5),
            weights={TITLE: base_title},
        )
        assert stats.hits == hits + 1

    def test_answer_cache_shares_and_splits_alike(self, engine_backend):
        engine = self._engine(engine_backend, answers=True)
        stats = engine.cache.answers.stats
        tenant_a = {TITLE: 0.25, GENRE: 0.5}
        tenant_b = {GENRE: 0.5, TITLE: 0.25}
        first = engine.ask(
            "drama", degree=WeightThreshold(0.5), weights=tenant_a
        )
        hits = stats.hits
        second = engine.ask(
            "drama", degree=WeightThreshold(0.5), weights=tenant_b
        )
        assert stats.hits == hits + 1
        assert second is first  # the very answer object, short-circuited
        third = engine.ask(
            "drama",
            degree=WeightThreshold(0.5),
            weights={TITLE: 0.25 + 1e-12, GENRE: 0.5},
        )
        assert third is not first
