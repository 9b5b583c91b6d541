"""The ask-key contract: ``ask_signature`` is the key ``ask`` caches under.

The async front door answers admission hits and coalesces flights on
``engine.ask_signature(...)``, which is sound only while it equals the
key ``engine.ask`` stores its answer under. Checked across profiles,
weight overrides, explicit constraints, strategy and translate, on
both storage backends.
"""

import pytest

from repro import (
    MaxTotalTuples,
    MaxTuplesPerRelation,
    PrecisEngine,
    Profile,
    TopRProjections,
    WeightThreshold,
)
from repro.core import CallableWeigher
from repro.datasets import movies_graph, movies_translation_spec, paper_instance
from repro.nlg import Translator
from repro.storage import BACKEND_NAMES

QUERY = '"Woody Allen"'
TITLE = ("proj", "MOVIE", "TITLE")
GENRE = ("join", "MOVIE", "GENRE")

#: registered on every engine under its name
CRITIC = Profile(
    name="critic",
    weights={TITLE: 0.55, GENRE: 0.2},
    degree=WeightThreshold(0.5),
)
#: passed as an object, never registered
BROWSER = Profile(
    name="browser",
    weights={TITLE: 0.95},
    cardinality=MaxTuplesPerRelation(2),
)


@pytest.fixture(scope="module", params=BACKEND_NAMES)
def db(request):
    """One read-only source database per backend."""
    return paper_instance(backend=request.param)


@pytest.fixture()
def engine(db):
    engine = PrecisEngine(
        db,
        graph=movies_graph(),
        translator=Translator(movies_translation_spec()),
        cache=True,
    )
    engine.register_profile(CRITIC)
    return engine


@pytest.mark.parametrize("translate", [True, False])
@pytest.mark.parametrize("strategy", ["auto", "naive", "round_robin"])
@pytest.mark.parametrize(
    "constraints",
    [
        {},
        {"degree": WeightThreshold(0.3)},
        {"degree": TopRProjections(3), "cardinality": MaxTotalTuples(4)},
    ],
    ids=["defaults", "degree", "degree+cardinality"],
)
@pytest.mark.parametrize(
    "weights", [None, {GENRE: 0.9}], ids=["no-weights", "weights"]
)
@pytest.mark.parametrize(
    "profile", [None, "critic", BROWSER], ids=["no-profile", "named", "object"]
)
def test_ask_caches_under_its_signature(
    engine, profile, weights, constraints, strategy, translate
):
    kwargs = dict(
        profile=profile,
        weights=weights,
        strategy=strategy,
        translate=translate,
        **constraints,
    )
    signature = engine.ask_signature(QUERY, **kwargs)
    assert signature is not None
    assert not engine.holds_answer(signature)
    answer = engine.ask(QUERY, **kwargs)
    assert answer.found
    assert engine.holds_answer(signature)
    assert engine.ask_signature(QUERY, **kwargs) == signature
    assert engine.ask(QUERY, **kwargs) is answer
    assert engine.cache_stats()["answers"] == {
        "hits": 1,
        "misses": 1,
        "evictions": 0,
        "invalidations": 0,
    }


@pytest.mark.parametrize(
    "first, second",
    [
        # the engine default, implicit and explicit
        ({}, {"degree": WeightThreshold(0.9)}),
        # a profile's default constraint, implied and spelled out
        (
            {"profile": "critic"},
            {"profile": CRITIC, "degree": WeightThreshold(0.5)},
        ),
        # a profile's weights, as a profile and as overrides
        (
            {"profile": BROWSER},
            {
                "weights": {TITLE: 0.95},
                "cardinality": MaxTuplesPerRelation(2),
            },
        ),
        # override order does not split the key
        (
            {"weights": {TITLE: 0.55, GENRE: 0.2}},
            {"weights": {GENRE: 0.2, TITLE: 0.55}},
        ),
    ],
    ids=["engine-default", "profile-degree", "profile-weights", "order"],
)
def test_equal_signatures_share_one_cached_answer(engine, first, second):
    assert engine.ask_signature(QUERY, **first) == engine.ask_signature(
        QUERY, **second
    )
    answer = engine.ask(QUERY, **first)
    assert engine.holds_answer(engine.ask_signature(QUERY, **second))
    assert engine.ask(QUERY, **second) is answer


def test_tuple_weigher_is_never_keyed_or_stored(engine):
    weigher = CallableWeigher(lambda relation, row: 1.0)
    assert engine.ask_signature(QUERY, tuple_weigher=weigher) is None
    assert not engine.holds_answer(None)
    first = engine.ask(QUERY, tuple_weigher=weigher)
    second = engine.ask(QUERY, tuple_weigher=weigher)
    assert first.found and second is not first
    assert len(engine.cache.answers) == 0
    assert engine.cache_stats()["answers"]["hits"] == 0
