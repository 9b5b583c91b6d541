"""Cross-tenant cache coherence: one tenant's weight changes must never
poison — or stale-serve — another tenant sharing the same engine.

Tenant identity lives entirely in the weight fingerprint, so:

* a tenant changing its own overlay moves to a *new* key (old entries
  are simply unreachable, never served);
* other tenants' keys are untouched — their plan-cache hits keep
  landing;
* mutating the shared *base* graph bumps its version, which is the
  validity token of every entry (base and overlay alike): everyone
  re-plans, nobody is served a stale schema.
"""

from __future__ import annotations

import pytest

from repro.cache import CacheConfig
from repro.core import PrecisEngine, WeightThreshold
from repro.datasets import generate_movies_database, movies_graph
from repro.personalization import Profile
from repro.storage import BACKEND_NAMES

TITLE = ("proj", "MOVIE", "TITLE")
YEAR = ("proj", "MOVIE", "YEAR")
DEGREE = WeightThreshold(0.5)


@pytest.fixture(params=BACKEND_NAMES)
def engine(request):
    db = generate_movies_database(n_movies=40, seed=5, backend=request.param)
    eng = PrecisEngine(
        db,
        graph=movies_graph(),
        cache=CacheConfig(answers=False),
    )
    yield eng
    db.close()


class TestCrossTenantCoherence:
    def test_tenant_mutation_does_not_evict_other_tenant(self, engine):
        stats = engine.cache.plans.stats
        tenant_a = {TITLE: 0.3}
        tenant_b = {YEAR: 0.3}
        # warm both tenants
        engine.ask("drama", degree=DEGREE, weights=tenant_a)
        engine.ask("drama", degree=DEGREE, weights=tenant_b)
        # tenant A "mutates": asks under a changed overlay (new key)
        engine.ask("drama", degree=DEGREE, weights={TITLE: 0.6})
        invalidations = stats.invalidations
        hits = stats.hits
        # tenant B still hits its warmed entry — A's change cost B nothing
        engine.ask("drama", degree=DEGREE, weights=tenant_b)
        assert stats.hits == hits + 1
        assert stats.invalidations == invalidations
        # and A's original overlay is still warm too
        engine.ask("drama", degree=DEGREE, weights=tenant_a)
        assert stats.hits == hits + 2

    def test_registered_profile_mutation_never_serves_stale(self, engine):
        profile = Profile("tenant-a", weights={TITLE: 0.9})
        engine.register_profile(profile)
        with_title = engine.ask("drama", degree=DEGREE, profile="tenant-a")
        assert "TITLE" in _projected(with_title)
        # the tenant edits its stored profile in place: drop TITLE below
        # the degree threshold
        profile.weights[TITLE] = 0.3
        without_title = engine.ask("drama", degree=DEGREE, profile="tenant-a")
        assert "TITLE" not in _projected(without_title)

    def test_profile_tenants_share_like_inline_tenants(self, engine):
        engine.register_profile(Profile("a", weights={TITLE: 0.3}))
        engine.register_profile(Profile("b", weights={TITLE: 0.3}))
        stats = engine.cache.plans.stats
        engine.ask("drama", degree=DEGREE, profile="a")
        hits = stats.hits
        # same effective weights, different profile name: still one entry
        engine.ask("drama", degree=DEGREE, profile="b")
        assert stats.hits == hits + 1

    def test_base_mutation_invalidates_every_tenant(self, engine):
        tenant_a = {TITLE: 0.3}
        engine.ask("drama", degree=DEGREE)  # base tenant
        engine.ask("drama", degree=DEGREE, weights=tenant_a)
        stats = engine.cache.plans.stats
        engine.graph.set_projection_weight("MOVIE", "YEAR", 0.45)
        invalidations = stats.invalidations
        hits = stats.hits
        engine.ask("drama", degree=DEGREE)
        engine.ask("drama", degree=DEGREE, weights=tenant_a)
        # both entries were discarded (version token mismatch), not served
        assert stats.invalidations == invalidations + 2
        assert stats.hits == hits
        # the re-planned answers see the new base weight: YEAR now falls
        # below the 0.5 threshold for both tenants
        assert "YEAR" not in _projected(engine.ask("drama", degree=DEGREE))
        assert "YEAR" not in _projected(
            engine.ask("drama", degree=DEGREE, weights=tenant_a)
        )


def _projected(answer) -> set[str]:
    """Attribute names that made it into the answer's result schema."""
    projected: set[str] = set()
    for relation in answer.database:
        for column in relation.schema.columns:
            projected.add(column.name)
    return projected
