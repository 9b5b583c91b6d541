"""Answer bytes pinned across commits.

Each case is one ask on a fixed 200-movie instance with the movies
graph and translator; the test pins the SHA-256 of the served body,
``answer.to_json()``. The same-commit oracles (backend equivalence,
traced == untraced, coalesced == uncoalesced) compare two runs of the
same code, so a change that alters the bytes on both sides passes them;
these digests were recorded from an earlier commit and catch it. A
second digest pins each case's EXPLAIN record
(``answer.explanation.to_dict()``), which holds what the body does not
show: the batches in execution order, the skipped join edges in order
and whether the cardinality constraint stopped the walk.

The cases mix phrases and single words, bounded and unbounded asks,
and both retrieval strategies, every one with a narrative. A digest
may change only when a change to the answer is intended; regenerate
them then, and say why.
"""

from __future__ import annotations

import hashlib
import json

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

# (query, strategy, per_relation, total, degree weight, sha256 of
# to_json(), sha256 of the sorted-key JSON of explanation.to_dict())
CASES = [
    ('"Jonas Papadopoulos"', "naive", None, None, None,
     "c29e80eed89b21533c2994cee65d78d528c444af3991ff6cac3d56cc049f6087",
     "dda97633c1ed6bc0a09f0dc688ce399a2b5c148a39f87d0dc4a80adda570342d"),
    ('"Jonas Papadopoulos"', "naive", None, 12, 0.5,
     "a93180fb1e2c8474008176989f2acd2aedd33e9a50f79844285f4b81c7d83015",
     "bc06146113dbd43c1e37d0422a3049021371391002ca5d756bec4f412b9fff4a"),
    ('"Thea Ivanov"', "round_robin", 3, None, None,
     "151fe1619ab5088238dcd5d0e0e704716d12d77c4f4c02366a987364a9f52067",
     "b4bf9b1faa15bd85ebc26d86e2d58eb74d6bfc43644455216eecf238afe15519"),
    ('"Thea Ivanov"', "round_robin", None, None, 0.5,
     "a8dec28f1d70e201fc9ba3f08bfa5273491b4a66a42752da05335cf48e446731",
     "c228846aa62ecc069c509f5f3ce080ec65daea9303b45747a68ee34fabc31edc"),
    ('"Nina Schneider"', "naive", None, 12, 0.5,
     "ff219ee61fc1486aa39c5bec39a4f1db74c043fd58428ad01c2909f74965ddb5",
     "e97d3c60f5d96fe4e25edbe77a47e3071849523231145ef75dbae9746386f4ea"),
    ('"Nina Schneider"', "naive", 2, None, None,
     "260f81d0a2c74c52636970bd0242d697319e5a968b9a6a434c80f7165c9bc048",
     "e684c4161046fe19a2d11b502bbb4715515ef706e6adc80ec8ff18e8431b76f8"),
    ('"Quentin Kowalski"', "round_robin", None, None, 0.5,
     "2952a3db47229e8a6328a6c9a8d6114980359c35968b7985a9f6c7633669e8b1",
     "a1a908916636ea61ee32eb1580070152af83c7627cc187e6e91586f53aa24999"),
    ('"Quentin Kowalski"', "naive", None, None, None,
     "888fea270c80648391b69fa68f0ad8910fd67171018bb0f35a8fda3367c6a7a2",
     "d1f165153483a9299f9fa5792627acce18b3480be1d1fb23ab369ec6977aba75"),
    ('"Kara Garcia"', "naive", 2, None, None,
     "2604a6b6ef7719e3c580616091486a1ee0c501ce8aa1eaa979fc2bd3aab1f05f",
     "0659c6d9ae45cfd40391f245aaaf8ff5c9cb9ae2cc2c5a630df5d23345bfb48e"),
    ('"Kara Garcia"', "round_robin", 3, None, None,
     "5c3767992c0b5646799b97c9f6f39b936564660a65902de1604f510afbde9afd",
     "089b5d38457babe6e99c44603ae81c5b6f011c17199b69239de499512bf1172d"),
    ('"Frozen Reckoning"', "naive", None, None, None,
     "f45ec0d32670f6544a5fab429c38a8b071844e9a7f0935f4fc1a6291fd363d86",
     "9a0ef9b42868427cb180df879e043859a18e967526142a45551a149db8cfd3bd"),
    ('"Frozen Reckoning"', "naive", None, 12, 0.5,
     "a23c01b50a9eaf4bcbe74aa49182ef3dcf304b89bfb534605e376f0d27258ae7",
     "781cf11c4f8a0e68437b8c85074fe36157825a7806d042f15fb0153dafe6c722"),
    ('"Hidden Horizon"', "round_robin", 3, None, None,
     "01e7fc5c50128b5e762a25ce915d98a04bcda40171d3e3a9a8d1f696a9e7971e",
     "341666b891376516a34eb95e08d7c6ae9901ff42efd6c23ac492d3a89eaf6c43"),
    ('"Hidden Horizon"', "round_robin", None, None, 0.5,
     "498f9c15e327a5180c0fc7909a68ac73521feeb612f9dfaa0277a7ce71a6545a",
     "4be49aa4788ca333ba1615143c750bf4c00efe8b860617faa7fd7ccd5fc3b846"),
    ('"Cinema 3"', "naive", None, 12, 0.5,
     "3306416fc9531f42007efcb7e579dfbfe6e229fa5a436e918b435f991271f90a",
     "a01b25768a68a6d9f1ef7b1d0cd76e4017d75609e66fd4506227b66e1c5abc2b"),
    ('"Cinema 3"', "naive", 2, None, None,
     "ec0d6e67cf3c3eb68e896bc8cf5e255187556d67b9c2076cbd0db92d7a086867",
     "2223cd97eb1fda45972b545871a8c64976a2273193599f01149fe37ec78ca6ac"),
    ('"Dan Vasquez" Thriller', "round_robin", None, None, 0.5,
     "1e858d6c0c66c4c8205a8c52dd252ad1bb90f5c2ce18738699f997b1cd7525da",
     "3b7753ac3d540820417e9dccc9c311bb41749c3529d0c1f1d6b88b4e076d03f4"),
    ('"Dan Vasquez" Thriller', "naive", None, None, None,
     "5832432e16e1528321e835408e537305069dfeee0d3569ec8e1f72622164b36f",
     "92b764ccd54302c5926e4e7ce2cbad488f002c492b340964823dd564fa3eebdd"),
    ('"Rosa Ivanov" "Iris Fontaine"', "naive", 2, None, None,
     "52a702272306587cac6f190d8c55645ca7eb7ba6e60a4f52cfc664272e610e9c",
     "430abb8115c88ca7ce9026b3d10411085cd759d13e81ebd58fb47eae50e8c0ac"),
    ('"Rosa Ivanov" "Iris Fontaine"', "round_robin", 3, None, None,
     "5ab111031237e901ea2bcdcc83329e67ca085e8925a135d2ca99beee4499c80c",
     "bd151ed41598ed74e0c1224e5f6fa089cc5a395fa06b9e9383b86da793e2a80c"),
    ("Garcia", "naive", None, None, None,
     "193170b6dd3a020d0073e64662eda3ec3780ce2ae29c758c4187f003bfbd9f81",
     "7552515e705cf5307e742df281c97c1c8ae818e74e9ffed7fc73e990ad8ba1f2"),
    ("Garcia", "naive", None, 12, 0.5,
     "aa762a4b59793922ea2f9ed7951667928ea690becc5fe1f2eb6b1daa4dd300db",
     "51964dcb09a72203f1b76c8f233e00b6ced2900271ced5ed7ae6471ab0313b8c"),
    ("Symphony", "round_robin", 3, None, None,
     "ce17c4051ddfca1affe6a01915661e5a8e0d12282ac41aa8ced88f24dcd0047f",
     "c0211fdd0af62d45b2b44c2bc1715cb8bd38b94a7f2b18bfea16597ef734e8f1"),
    ("Symphony", "round_robin", None, None, 0.5,
     "6abb56777c44dd8dc115b6d0bdac85260a67b940f19f75574c82f5d6c9dbc48d",
     "9cd0725ee7dae4ffd446d2ddff87c8c524c41dcc258f899d55d3b6b418c1b689"),
    ("Savage", "naive", None, 12, 0.5,
     "51d50159bf67d6256d83e0045a6b2528bf95d0135e671224fcd4dfda55743402",
     "697b78c90b20b4cc8f69f260b56dc09d5adf3344abb619971773cf7313e4a86d"),
    ("Savage", "naive", 2, None, None,
     "29d9e7ea56bda90514c8a193c0926151066aa6a0727a4b3ced7ad038602e3e4b",
     "19fb09a17b477298a2bc439efcf0d0efbfd583a736697f0eb7784a0a4945442f"),
    ("Comedy", "round_robin", None, None, 0.5,
     "bb9896c17d96cf1ccde3ef6d1a9d496da172e4cf6408f6c7f17f3dfc9ac4273a",
     "af922281939f071989078cfaf475d2a739722cd75dbb0391ca6f256e299722ea"),
    ("Comedy", "naive", None, None, None,
     "42c6f757b628d1659c948de73df3b07eae3a4f9a596d168522592f6d2478d904",
     "5eaf8c4897038940a82cfa9b375760167135d29f3290bd07023cacb4679e3586"),
    ("Thea", "naive", 2, None, None,
     "6721867cae66e2fb4b76d2c8caf51aa4d5702ce0b115262d3d78018a10dc7a0e",
     "6fcf3686e54a73b780de15658db5b58646314eff70bf74978132034291b50e6d"),
    ("Thea", "round_robin", 3, None, None,
     "d2015cddff9a9c3ed573bed114794d0e10717b41f2b8dad1fee97e03821bce15",
     "db772d936896eb271389a8a0cae974989ffc22636b34e34052de8139e59b08bc"),
    ("Harbor", "naive", None, None, None,
     "9b90e9000773c8814de6e124627aa0fb218d43878ef58e494b0daa54fff8a770",
     "455712aaaeb01bc4894df90b8b6c8a88e5dad845514af08e6726bb993d7bf612"),
    ("Harbor", "naive", None, 12, 0.5,
     "5b78615b42d4cdc10e8b673567ee4496e004067764a12cc05bd5a5f160c5e2ad",
     "bc248eb923bf2dcf05f362efc6888a98e5694603ca7d1e7b72689b876b523801"),
    ("Ivanov", "round_robin", 3, None, None,
     "5db33f469cd93461170c4633fe1c9fc3c8d82a1a1b71e63214ab3ec9126110a4",
     "df304cfaf867bb6030dea8ceb07d540c4227959ab330fb469d15d81d6da99bd1"),
    ("Ivanov", "round_robin", None, None, 0.5,
     "c695e43c20c1682c2d6cdb6de6a08f2a9bdf221712bcfd51ceb0e76c5756957e",
     "cee9356e2c4ae526caa86f3c56653faa80b3ab51d14e3803efb71c5e4f3296ba"),
    ("Station Horizon", "naive", None, 12, 0.5,
     "b4c3be3af869c2b160fd9f0a450303ead21b3a2a5460895fa9092493269c5e16",
     "5986380bdbbea49db73e002aa6ef515b038a899a67059a3b32b9b91db9a56f34"),
    ("Station Horizon", "naive", 2, None, None,
     "cde8b2819f6c43ad752342bebc5d15a05f5c3dc9374424ed1ee8b72b3f307846",
     "03c7c66382592b08e80349f53ffbdf095dc779463ede5d331f66333981ab3bed"),
    ("Greece", "round_robin", None, None, 0.5,
     "ddbbe71dcf01fdfeed7b695c70c42d43eedc044926dedd477a488f486269191c",
     "265b834b5bfe6247f52052af185f8d780e54e5d82f0214f7c261e9a0ec6da299"),
    ("Greece", "naive", None, None, None,
     "35c8c517d610b57248077f30f4b7bb5ba8182cb4ef7cec22afaee1e2be485d04",
     "fb8f7d7919761fe4306db659e91f93453b39faa3422d93ebfb1b1e51bbc0804a"),
    ("Moreau", "naive", 2, None, None,
     "2ad5c0882ba7a8843d85907123b10a0c3968f2439469c54105f53618c00ac6e5",
     "6eb0d39a599d744afed1d724e9ce186a888abb2415f0302d3700bdf302a062f4"),
    ("Moreau", "round_robin", 3, None, None,
     "ad089de922bdd8f8301af7abb27da8178fd3b6fba8da1d5733b56b75bed50229",
     "1e6875190e4c8735f37ad0f063fd76d0398ced607349e7c769115f56d5ba1a05"),
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


def _ask(engines, backend, query, strategy, per_relation, total, weight):
    if per_relation is not None:
        cardinality = MaxTuplesPerRelation(per_relation)
    elif total is not None:
        cardinality = MaxTotalTuples(total)
    else:
        cardinality = None
    degree = WeightThreshold(weight) if weight is not None else None
    return _engine(engines, backend).ask(
        query, degree=degree, cardinality=cardinality, strategy=strategy
    )


@pytest.mark.parametrize(
    "query, strategy, per_relation, total, weight, digest",
    [case[:6] for case in CASES],
)
def test_answer_bytes_unchanged(
    engines, backend, query, strategy, per_relation, total, weight, digest
):
    answer = _ask(
        engines, backend, query, strategy, per_relation, total, weight
    )
    assert answer.narrative
    assert hashlib.sha256(answer.to_json()).hexdigest() == digest


@pytest.mark.parametrize(
    "query, strategy, per_relation, total, weight, digest",
    [(*case[:5], case[6]) for case in CASES],
)
def test_explanation_unchanged(
    engines, backend, query, strategy, per_relation, total, weight, digest
):
    answer = _ask(
        engines, backend, query, strategy, per_relation, total, weight
    )
    encoded = json.dumps(answer.explanation.to_dict(), sort_keys=True)
    assert hashlib.sha256(encoded.encode("utf-8")).hexdigest() == digest
