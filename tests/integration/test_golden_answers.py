"""Answer bytes pinned across commits.

Each case is one ask on a fixed 200-movie instance with the movies
graph and translator; the test pins the SHA-256 of the served body,
``answer.to_json()``. The same-commit oracles (backend equivalence,
traced == untraced, coalesced == uncoalesced) compare two runs of the
same code, so a change that alters the bytes on both sides passes them;
these digests were recorded from an earlier commit and catch it.

The cases mix phrases and single words, bounded and unbounded asks,
and both retrieval strategies, every one with a narrative. A digest
may change only when a change to the answer is intended; regenerate
them then, and say why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import (
    MaxTotalTuples,
    MaxTuplesPerRelation,
    PrecisEngine,
    WeightThreshold,
)
from repro.datasets import (
    generate_movies_database,
    movies_graph,
    movies_translation_spec,
)
from repro.nlg import Translator

# (query, strategy, per_relation, total, degree weight, sha256 of to_json())
CASES = [
    ('"Jonas Papadopoulos"', "naive", None, None, None,
     "c29e80eed89b21533c2994cee65d78d528c444af3991ff6cac3d56cc049f6087"),
    ('"Jonas Papadopoulos"', "naive", None, 12, 0.5,
     "a93180fb1e2c8474008176989f2acd2aedd33e9a50f79844285f4b81c7d83015"),
    ('"Thea Ivanov"', "round_robin", 3, None, None,
     "151fe1619ab5088238dcd5d0e0e704716d12d77c4f4c02366a987364a9f52067"),
    ('"Thea Ivanov"', "round_robin", None, None, 0.5,
     "a8dec28f1d70e201fc9ba3f08bfa5273491b4a66a42752da05335cf48e446731"),
    ('"Nina Schneider"', "naive", None, 12, 0.5,
     "ff219ee61fc1486aa39c5bec39a4f1db74c043fd58428ad01c2909f74965ddb5"),
    ('"Nina Schneider"', "naive", 2, None, None,
     "260f81d0a2c74c52636970bd0242d697319e5a968b9a6a434c80f7165c9bc048"),
    ('"Quentin Kowalski"', "round_robin", None, None, 0.5,
     "2952a3db47229e8a6328a6c9a8d6114980359c35968b7985a9f6c7633669e8b1"),
    ('"Quentin Kowalski"', "naive", None, None, None,
     "888fea270c80648391b69fa68f0ad8910fd67171018bb0f35a8fda3367c6a7a2"),
    ('"Kara Garcia"', "naive", 2, None, None,
     "2604a6b6ef7719e3c580616091486a1ee0c501ce8aa1eaa979fc2bd3aab1f05f"),
    ('"Kara Garcia"', "round_robin", 3, None, None,
     "5c3767992c0b5646799b97c9f6f39b936564660a65902de1604f510afbde9afd"),
    ('"Frozen Reckoning"', "naive", None, None, None,
     "f45ec0d32670f6544a5fab429c38a8b071844e9a7f0935f4fc1a6291fd363d86"),
    ('"Frozen Reckoning"', "naive", None, 12, 0.5,
     "a23c01b50a9eaf4bcbe74aa49182ef3dcf304b89bfb534605e376f0d27258ae7"),
    ('"Hidden Horizon"', "round_robin", 3, None, None,
     "01e7fc5c50128b5e762a25ce915d98a04bcda40171d3e3a9a8d1f696a9e7971e"),
    ('"Hidden Horizon"', "round_robin", None, None, 0.5,
     "498f9c15e327a5180c0fc7909a68ac73521feeb612f9dfaa0277a7ce71a6545a"),
    ('"Cinema 3"', "naive", None, 12, 0.5,
     "3306416fc9531f42007efcb7e579dfbfe6e229fa5a436e918b435f991271f90a"),
    ('"Cinema 3"', "naive", 2, None, None,
     "ec0d6e67cf3c3eb68e896bc8cf5e255187556d67b9c2076cbd0db92d7a086867"),
    ('"Dan Vasquez" Thriller', "round_robin", None, None, 0.5,
     "1e858d6c0c66c4c8205a8c52dd252ad1bb90f5c2ce18738699f997b1cd7525da"),
    ('"Dan Vasquez" Thriller', "naive", None, None, None,
     "5832432e16e1528321e835408e537305069dfeee0d3569ec8e1f72622164b36f"),
    ('"Rosa Ivanov" "Iris Fontaine"', "naive", 2, None, None,
     "52a702272306587cac6f190d8c55645ca7eb7ba6e60a4f52cfc664272e610e9c"),
    ('"Rosa Ivanov" "Iris Fontaine"', "round_robin", 3, None, None,
     "5ab111031237e901ea2bcdcc83329e67ca085e8925a135d2ca99beee4499c80c"),
    ("Garcia", "naive", None, None, None,
     "193170b6dd3a020d0073e64662eda3ec3780ce2ae29c758c4187f003bfbd9f81"),
    ("Garcia", "naive", None, 12, 0.5,
     "aa762a4b59793922ea2f9ed7951667928ea690becc5fe1f2eb6b1daa4dd300db"),
    ("Symphony", "round_robin", 3, None, None,
     "ce17c4051ddfca1affe6a01915661e5a8e0d12282ac41aa8ced88f24dcd0047f"),
    ("Symphony", "round_robin", None, None, 0.5,
     "6abb56777c44dd8dc115b6d0bdac85260a67b940f19f75574c82f5d6c9dbc48d"),
    ("Savage", "naive", None, 12, 0.5,
     "51d50159bf67d6256d83e0045a6b2528bf95d0135e671224fcd4dfda55743402"),
    ("Savage", "naive", 2, None, None,
     "29d9e7ea56bda90514c8a193c0926151066aa6a0727a4b3ced7ad038602e3e4b"),
    ("Comedy", "round_robin", None, None, 0.5,
     "bb9896c17d96cf1ccde3ef6d1a9d496da172e4cf6408f6c7f17f3dfc9ac4273a"),
    ("Comedy", "naive", None, None, None,
     "42c6f757b628d1659c948de73df3b07eae3a4f9a596d168522592f6d2478d904"),
    ("Thea", "naive", 2, None, None,
     "6721867cae66e2fb4b76d2c8caf51aa4d5702ce0b115262d3d78018a10dc7a0e"),
    ("Thea", "round_robin", 3, None, None,
     "d2015cddff9a9c3ed573bed114794d0e10717b41f2b8dad1fee97e03821bce15"),
    ("Harbor", "naive", None, None, None,
     "9b90e9000773c8814de6e124627aa0fb218d43878ef58e494b0daa54fff8a770"),
    ("Harbor", "naive", None, 12, 0.5,
     "5b78615b42d4cdc10e8b673567ee4496e004067764a12cc05bd5a5f160c5e2ad"),
    ("Ivanov", "round_robin", 3, None, None,
     "5db33f469cd93461170c4633fe1c9fc3c8d82a1a1b71e63214ab3ec9126110a4"),
    ("Ivanov", "round_robin", None, None, 0.5,
     "c695e43c20c1682c2d6cdb6de6a08f2a9bdf221712bcfd51ceb0e76c5756957e"),
    ("Station Horizon", "naive", None, 12, 0.5,
     "b4c3be3af869c2b160fd9f0a450303ead21b3a2a5460895fa9092493269c5e16"),
    ("Station Horizon", "naive", 2, None, None,
     "cde8b2819f6c43ad752342bebc5d15a05f5c3dc9374424ed1ee8b72b3f307846"),
    ("Greece", "round_robin", None, None, 0.5,
     "ddbbe71dcf01fdfeed7b695c70c42d43eedc044926dedd477a488f486269191c"),
    ("Greece", "naive", None, None, None,
     "35c8c517d610b57248077f30f4b7bb5ba8182cb4ef7cec22afaee1e2be485d04"),
    ("Moreau", "naive", 2, None, None,
     "2ad5c0882ba7a8843d85907123b10a0c3968f2439469c54105f53618c00ac6e5"),
    ("Moreau", "round_robin", 3, None, None,
     "ad089de922bdd8f8301af7abb27da8178fd3b6fba8da1d5733b56b75bed50229"),
]


@pytest.fixture(scope="module")
def engines():
    """One engine per backend, built on first use and kept for the
    module's cases."""
    built: dict[str, PrecisEngine] = {}
    yield built
    for engine in built.values():
        engine.db.close()


def _engine(engines, backend: str) -> PrecisEngine:
    if backend not in engines:
        engines[backend] = PrecisEngine(
            generate_movies_database(n_movies=200, seed=5, backend=backend),
            graph=movies_graph(),
            translator=Translator(movies_translation_spec()),
        )
    return engines[backend]


@pytest.mark.parametrize(
    "query, strategy, per_relation, total, weight, digest", CASES
)
def test_answer_bytes_unchanged(
    engines, backend, query, strategy, per_relation, total, weight, digest
):
    if per_relation is not None:
        cardinality = MaxTuplesPerRelation(per_relation)
    elif total is not None:
        cardinality = MaxTotalTuples(total)
    else:
        cardinality = None
    degree = WeightThreshold(weight) if weight is not None else None
    answer = _engine(engines, backend).ask(
        query, degree=degree, cardinality=cardinality, strategy=strategy
    )
    assert answer.narrative
    assert hashlib.sha256(answer.to_json()).hexdigest() == digest
