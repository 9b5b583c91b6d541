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
and whether the cardinality constraint stopped the walk. A third
pins what the plan view shows: ``render_plan``, ``emitted_queries``
and ``relevance()``. For the queries whose token matches in several
places, the body and EXPLAIN of each ``ask_per_occurrence`` answer
are pinned too, and a query whose token matches in one place must get
from ``ask_per_occurrence`` the one answer ``ask`` gives.

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
from repro.core.explain import emitted_queries, render_plan
from repro.datasets import (
    generate_movies_database,
    movies_graph,
    movies_translation_spec,
)
from repro.nlg import Translator

# (query, strategy, per_relation, total, degree weight, sha256 of
# to_json(), sha256 of the sorted-key JSON of explanation.to_dict(),
# sha256 of the JSON list [render_plan, emitted_queries, repr of
# relevance()])
CASES = [
    ('"Jonas Papadopoulos"', "naive", None, None, None,
     "c29e80eed89b21533c2994cee65d78d528c444af3991ff6cac3d56cc049f6087",
     "dda97633c1ed6bc0a09f0dc688ce399a2b5c148a39f87d0dc4a80adda570342d",
     "6dcc1bd15f540c6d88e38b706e379aa3e919ddfeee1da080f659c6f0b9c6edb4"),
    ('"Jonas Papadopoulos"', "naive", None, 12, 0.5,
     "a93180fb1e2c8474008176989f2acd2aedd33e9a50f79844285f4b81c7d83015",
     "bc06146113dbd43c1e37d0422a3049021371391002ca5d756bec4f412b9fff4a",
     "d62082a2b8af29ad208f2073e863452bb96617ebac51be6bb6bb403c36611e9f"),
    ('"Thea Ivanov"', "round_robin", 3, None, None,
     "151fe1619ab5088238dcd5d0e0e704716d12d77c4f4c02366a987364a9f52067",
     "b4bf9b1faa15bd85ebc26d86e2d58eb74d6bfc43644455216eecf238afe15519",
     "0cfdccb170d2abb86f8e30d9ee6ec07262753137bc59e67346e4ba1484cd8e5c"),
    ('"Thea Ivanov"', "round_robin", None, None, 0.5,
     "a8dec28f1d70e201fc9ba3f08bfa5273491b4a66a42752da05335cf48e446731",
     "c228846aa62ecc069c509f5f3ce080ec65daea9303b45747a68ee34fabc31edc",
     "113a275d477ae1182a8e25ccf9a397e7ab825fb80b5b1c88824501705a378ae9"),
    ('"Nina Schneider"', "naive", None, 12, 0.5,
     "ff219ee61fc1486aa39c5bec39a4f1db74c043fd58428ad01c2909f74965ddb5",
     "e97d3c60f5d96fe4e25edbe77a47e3071849523231145ef75dbae9746386f4ea",
     "1f1fcc1e89aa858272c34ca7eedcdb047f5a7bfe295e2eee74deceac051e1015"),
    ('"Nina Schneider"', "naive", 2, None, None,
     "260f81d0a2c74c52636970bd0242d697319e5a968b9a6a434c80f7165c9bc048",
     "e684c4161046fe19a2d11b502bbb4715515ef706e6adc80ec8ff18e8431b76f8",
     "5318e62f73451fb6210639d037343dfb2d3f404def5f8bc37ff1077a712bd580"),
    ('"Quentin Kowalski"', "round_robin", None, None, 0.5,
     "2952a3db47229e8a6328a6c9a8d6114980359c35968b7985a9f6c7633669e8b1",
     "a1a908916636ea61ee32eb1580070152af83c7627cc187e6e91586f53aa24999",
     "5cf6acfa4beb931fdc89f7991415f360f8222a5575c3cba6981ba0ef8c9d6e94"),
    ('"Quentin Kowalski"', "naive", None, None, None,
     "888fea270c80648391b69fa68f0ad8910fd67171018bb0f35a8fda3367c6a7a2",
     "d1f165153483a9299f9fa5792627acce18b3480be1d1fb23ab369ec6977aba75",
     "325f82d2e8588e63eaede71e7352d826141baaa036fb1045b0894b2112f43afe"),
    ('"Kara Garcia"', "naive", 2, None, None,
     "2604a6b6ef7719e3c580616091486a1ee0c501ce8aa1eaa979fc2bd3aab1f05f",
     "0659c6d9ae45cfd40391f245aaaf8ff5c9cb9ae2cc2c5a630df5d23345bfb48e",
     "2d7310f50edf92002d135d6f2faea36be41f651232837bdc51061e1a08e92d97"),
    ('"Kara Garcia"', "round_robin", 3, None, None,
     "5c3767992c0b5646799b97c9f6f39b936564660a65902de1604f510afbde9afd",
     "089b5d38457babe6e99c44603ae81c5b6f011c17199b69239de499512bf1172d",
     "a3967a56d0fe454c435ba1ae573c87c9bdfa84eb3b772fdef71c8eb82cf97813"),
    ('"Frozen Reckoning"', "naive", None, None, None,
     "f45ec0d32670f6544a5fab429c38a8b071844e9a7f0935f4fc1a6291fd363d86",
     "9a0ef9b42868427cb180df879e043859a18e967526142a45551a149db8cfd3bd",
     "0107094cd196151ccade637ba5c9bd6354c78acffb2fc20fd1684edf9778dbfb"),
    ('"Frozen Reckoning"', "naive", None, 12, 0.5,
     "a23c01b50a9eaf4bcbe74aa49182ef3dcf304b89bfb534605e376f0d27258ae7",
     "781cf11c4f8a0e68437b8c85074fe36157825a7806d042f15fb0153dafe6c722",
     "70859ea5ea494e2230eac2d75344afe4a83694dde1ddda23d76e5200ae1ebfe4"),
    ('"Hidden Horizon"', "round_robin", 3, None, None,
     "01e7fc5c50128b5e762a25ce915d98a04bcda40171d3e3a9a8d1f696a9e7971e",
     "341666b891376516a34eb95e08d7c6ae9901ff42efd6c23ac492d3a89eaf6c43",
     "0dc73984dc94c0e0c98822056da581e6abdfa3cf2fc3140073816db112ef0868"),
    ('"Hidden Horizon"', "round_robin", None, None, 0.5,
     "498f9c15e327a5180c0fc7909a68ac73521feeb612f9dfaa0277a7ce71a6545a",
     "4be49aa4788ca333ba1615143c750bf4c00efe8b860617faa7fd7ccd5fc3b846",
     "7e2445b0abb68a35b25bcf378b20a33e9ba24241f17fd2fae166fc40daf778a9"),
    ('"Cinema 3"', "naive", None, 12, 0.5,
     "3306416fc9531f42007efcb7e579dfbfe6e229fa5a436e918b435f991271f90a",
     "a01b25768a68a6d9f1ef7b1d0cd76e4017d75609e66fd4506227b66e1c5abc2b",
     "178d7b50184cca5ac26eb535d3502311b1889d7b232b3bdd29ff108f0fa27993"),
    ('"Cinema 3"', "naive", 2, None, None,
     "ec0d6e67cf3c3eb68e896bc8cf5e255187556d67b9c2076cbd0db92d7a086867",
     "2223cd97eb1fda45972b545871a8c64976a2273193599f01149fe37ec78ca6ac",
     "b6219d48dc1f9defd2d10e67bb1aac709e6a6496283ff17c5ccc88b6c7433cd6"),
    ('"Dan Vasquez" Thriller', "round_robin", None, None, 0.5,
     "1e858d6c0c66c4c8205a8c52dd252ad1bb90f5c2ce18738699f997b1cd7525da",
     "3b7753ac3d540820417e9dccc9c311bb41749c3529d0c1f1d6b88b4e076d03f4",
     "9b193f44493528b6e3939ce4c7c763aaf3c3467e7ea3b93ec96c612f09e1f0ac"),
    ('"Dan Vasquez" Thriller', "naive", None, None, None,
     "5832432e16e1528321e835408e537305069dfeee0d3569ec8e1f72622164b36f",
     "92b764ccd54302c5926e4e7ce2cbad488f002c492b340964823dd564fa3eebdd",
     "d38fda60965581805db005219e6af357736b88b1fa42cad5b6f612d6f1bdf64a"),
    ('"Rosa Ivanov" "Iris Fontaine"', "naive", 2, None, None,
     "52a702272306587cac6f190d8c55645ca7eb7ba6e60a4f52cfc664272e610e9c",
     "430abb8115c88ca7ce9026b3d10411085cd759d13e81ebd58fb47eae50e8c0ac",
     "e49774e69507953eac50966b3aee6b4e0a6599607c3c3a535cac4e669e2f78d5"),
    ('"Rosa Ivanov" "Iris Fontaine"', "round_robin", 3, None, None,
     "5ab111031237e901ea2bcdcc83329e67ca085e8925a135d2ca99beee4499c80c",
     "bd151ed41598ed74e0c1224e5f6fa089cc5a395fa06b9e9383b86da793e2a80c",
     "3209a6aee756470148dd0067f2a67184af7e3ba05cf96d6c948db67ce93698a2"),
    ("Garcia", "naive", None, None, None,
     "193170b6dd3a020d0073e64662eda3ec3780ce2ae29c758c4187f003bfbd9f81",
     "7552515e705cf5307e742df281c97c1c8ae818e74e9ffed7fc73e990ad8ba1f2",
     "74b45433cf15288ffaa33506ee4f6b3a2781eab3c189a70d931a00f07c338811"),
    ("Garcia", "naive", None, 12, 0.5,
     "aa762a4b59793922ea2f9ed7951667928ea690becc5fe1f2eb6b1daa4dd300db",
     "51964dcb09a72203f1b76c8f233e00b6ced2900271ced5ed7ae6471ab0313b8c",
     "8962f8c2635826f5c9b5a4ae27296d4af2e18d1201da107b8f2238ba05d13483"),
    ("Symphony", "round_robin", 3, None, None,
     "ce17c4051ddfca1affe6a01915661e5a8e0d12282ac41aa8ced88f24dcd0047f",
     "c0211fdd0af62d45b2b44c2bc1715cb8bd38b94a7f2b18bfea16597ef734e8f1",
     "fd4753990ed422ff351307ddfaed4d1f16c7138f695ccdf01bffe24e29e36b20"),
    ("Symphony", "round_robin", None, None, 0.5,
     "6abb56777c44dd8dc115b6d0bdac85260a67b940f19f75574c82f5d6c9dbc48d",
     "9cd0725ee7dae4ffd446d2ddff87c8c524c41dcc258f899d55d3b6b418c1b689",
     "c4e98ea620d3d5a6dda9373d81d6ae3bc1221a0cbc228fb61da831d538015615"),
    ("Savage", "naive", None, 12, 0.5,
     "51d50159bf67d6256d83e0045a6b2528bf95d0135e671224fcd4dfda55743402",
     "697b78c90b20b4cc8f69f260b56dc09d5adf3344abb619971773cf7313e4a86d",
     "d66b5fa0c70e8b26ef79034db0fc42c29a194aa4f15528facbff306b4d3b6269"),
    ("Savage", "naive", 2, None, None,
     "29d9e7ea56bda90514c8a193c0926151066aa6a0727a4b3ced7ad038602e3e4b",
     "19fb09a17b477298a2bc439efcf0d0efbfd583a736697f0eb7784a0a4945442f",
     "e2d77928ea67a40ae31a5296957047ed1ab15805f88a7b16985d8da5231870e1"),
    ("Comedy", "round_robin", None, None, 0.5,
     "bb9896c17d96cf1ccde3ef6d1a9d496da172e4cf6408f6c7f17f3dfc9ac4273a",
     "af922281939f071989078cfaf475d2a739722cd75dbb0391ca6f256e299722ea",
     "2f17ec1b0eae72a1947b008523ac60e80b76850add3a1cc69cd1c589e336c34c"),
    ("Comedy", "naive", None, None, None,
     "42c6f757b628d1659c948de73df3b07eae3a4f9a596d168522592f6d2478d904",
     "5eaf8c4897038940a82cfa9b375760167135d29f3290bd07023cacb4679e3586",
     "a261e083e4ae96503c01179b8c0cefc6f1394208acd6b6af61576e4f29e8ff05"),
    ("Thea", "naive", 2, None, None,
     "6721867cae66e2fb4b76d2c8caf51aa4d5702ce0b115262d3d78018a10dc7a0e",
     "6fcf3686e54a73b780de15658db5b58646314eff70bf74978132034291b50e6d",
     "0f48bf82b4a401ace8eb9bf9c5b078b347b7b43ac9874d154e058588ed4ac848"),
    ("Thea", "round_robin", 3, None, None,
     "d2015cddff9a9c3ed573bed114794d0e10717b41f2b8dad1fee97e03821bce15",
     "db772d936896eb271389a8a0cae974989ffc22636b34e34052de8139e59b08bc",
     "3dd56bf833af7ec0f365bbf5f4334abe422a48f3e10bd8a2e93a5ab2922bff14"),
    ("Harbor", "naive", None, None, None,
     "9b90e9000773c8814de6e124627aa0fb218d43878ef58e494b0daa54fff8a770",
     "455712aaaeb01bc4894df90b8b6c8a88e5dad845514af08e6726bb993d7bf612",
     "24befeebab13a0365ffc0137f50ea423f38f205ceeaa3c4a3fbe4c5f9dd6c61b"),
    ("Harbor", "naive", None, 12, 0.5,
     "5b78615b42d4cdc10e8b673567ee4496e004067764a12cc05bd5a5f160c5e2ad",
     "bc248eb923bf2dcf05f362efc6888a98e5694603ca7d1e7b72689b876b523801",
     "0bbcf49aa392032c49989c8e65c170aa44c6a32618d36aa6aacf209439dc253f"),
    ("Ivanov", "round_robin", 3, None, None,
     "5db33f469cd93461170c4633fe1c9fc3c8d82a1a1b71e63214ab3ec9126110a4",
     "df304cfaf867bb6030dea8ceb07d540c4227959ab330fb469d15d81d6da99bd1",
     "bce2f8e470da5ff75bab55f01243bbfb459a1ff600a05810ce8bf265d866d396"),
    ("Ivanov", "round_robin", None, None, 0.5,
     "c695e43c20c1682c2d6cdb6de6a08f2a9bdf221712bcfd51ceb0e76c5756957e",
     "cee9356e2c4ae526caa86f3c56653faa80b3ab51d14e3803efb71c5e4f3296ba",
     "b708bcaea9372fd33fb1c8a6e88982794307fd000ff2dbe11512108bbf5b49bd"),
    ("Station Horizon", "naive", None, 12, 0.5,
     "b4c3be3af869c2b160fd9f0a450303ead21b3a2a5460895fa9092493269c5e16",
     "5986380bdbbea49db73e002aa6ef515b038a899a67059a3b32b9b91db9a56f34",
     "f2c4db20a82660945fb839f9ea54c54c48453368ffdbd71bbd7192e14dee45e0"),
    ("Station Horizon", "naive", 2, None, None,
     "cde8b2819f6c43ad752342bebc5d15a05f5c3dc9374424ed1ee8b72b3f307846",
     "03c7c66382592b08e80349f53ffbdf095dc779463ede5d331f66333981ab3bed",
     "17d6e365151f35bfbcb19f941e40848311a71d2b5ea69f138fff0d8c1fc6629a"),
    ("Greece", "round_robin", None, None, 0.5,
     "ddbbe71dcf01fdfeed7b695c70c42d43eedc044926dedd477a488f486269191c",
     "265b834b5bfe6247f52052af185f8d780e54e5d82f0214f7c261e9a0ec6da299",
     "3c30abf32a575693a0a562fa0cae7d81e06afdaca4deddb03ea74e992fec4dcc"),
    ("Greece", "naive", None, None, None,
     "35c8c517d610b57248077f30f4b7bb5ba8182cb4ef7cec22afaee1e2be485d04",
     "fb8f7d7919761fe4306db659e91f93453b39faa3422d93ebfb1b1e51bbc0804a",
     "9f9e77e1ec3f45be9954838557a38b3eded9906c823b96089a19fb0557d34460"),
    ("Moreau", "naive", 2, None, None,
     "2ad5c0882ba7a8843d85907123b10a0c3968f2439469c54105f53618c00ac6e5",
     "6eb0d39a599d744afed1d724e9ce186a888abb2415f0302d3700bdf302a062f4",
     "ec88d8bb5613dfeb5a92e7c46e12d0613f9ba70cc5e8640820e92a5b9e272608"),
    ("Moreau", "round_robin", 3, None, None,
     "ad089de922bdd8f8301af7abb27da8178fd3b6fba8da1d5733b56b75bed50229",
     "1e6875190e4c8735f37ad0f063fd76d0398ced607349e7c769115f56d5ba1a05",
     "7329247e25277956244d8117408b60adfd9c83dbdd6ddc6beec304e4c0306e7b"),
]


# The cases whose token matches in several places: per answer of
# ask_per_occurrence (one per occurrence, in match order), the sha256 of
# to_json() and of the sorted-key JSON of explanation.to_dict().
OCCURRENCE_CASES = [
    ('"Jonas Papadopoulos"', "naive", None, None, None, (
        ("4d4d7bfadeb57ea9dc94467619ac7d51b320671ce1472673e2198dcf4cf14c9d",
         "4c13bcb16b5aa8a813d173df9328d37ebc7546dc051df94154a5d98211b15325"),
        ("f736f76f470ed85cf6c8880b0d93003be1183f855b6794b5ca5532240d48221d",
         "c1eda52b7fd6bee3cd57901a0b695426a95c3ac6a7f312de60ab208c3cf48110"),
        ("26257018a0e31ac0b21bf13d6b9f08e892335ee278581c6ea5d74968a3d825ca",
         "a8bf7fe3273a94fa504a7635bc4b263c25333850c632d27f4400e9b9dd2472cb"),
    )),
    ('"Jonas Papadopoulos"', "naive", None, 12, 0.5, (
        ("35f3cb23abaf15285446517e0deef299b9085cfde983c603e219c85a6e13341c",
         "84a3e6670f3fcc0aa29ebad5582878185454c15e2c953d4ec8deac43de955059"),
        ("dff420bcb83ee96198abe5b7586dc3d7d97115ef993c2327e435bc11852c625c",
         "840c778bfb4e97917064978f46ec538b76f1a0c0e7ce986641a23703a165b006"),
        ("118526ec83ef3cb98193cfcf7037c309d564880c348b4f5dbd0eadc04a933eaa",
         "3c55a0ac474ad3584394ecb9804665d00015cbc7baa049e8a5fe78de64544370"),
    )),
    ('"Quentin Kowalski"', "round_robin", None, None, 0.5, (
        ("21cdb1dad2d6ad2cf4c87ded711e2300986a5397972cbf1e5f728c09b123e7b5",
         "fedf0a30ece213e78680367cad8c1e4f7cfe27246c7e1d48ffc41721fe03188b"),
        ("0bb58e09aa91fe6943c09b91298d8f9427033eb22d409dbb08e231f6a14733ce",
         "df577ae44ec7ca84156d9e5a1d208e61820ffc432f88391132e131d2299894a6"),
    )),
    ('"Quentin Kowalski"', "naive", None, None, None, (
        ("6de0f1553dec9253f645f7744f9ae1e72c27122e72794bee52b25158142138cc",
         "97e6ec1962d2169ffffd74bfe6efed322b42a1a9aeded44305b8e08c10f20270"),
        ("84151e72d6ee922218fe29531917420cd4876d4a4fcc756ee2d1883ecc24d5d4",
         "87b0443859f7df78508015f31862fb90866c62bd09835f2be3bd38bd985592be"),
    )),
    ("Moreau", "naive", 2, None, None, (
        ("b1478ec7d292c8130e9cfdecb1bc3f8d4f48c49f0e1e20f7c3dc5e0750f64d3b",
         "a5803f7feb3504f1f85c5feb66f5726c97774747f199e13ac7254829ca8281c7"),
        ("6ca6221a62dd84fa0ef5ad8559d8729659a5cdc6428041acb7c7fe71475647bf",
         "505b87b26ef3e5d6a08aaa38753c937f105a7551a01aaa03a5edadf6d7aaf087"),
        ("e14973a5c9311ec0d569ef49f459727aad98c3a55b71c009dc1a428ef002cabe",
         "489c31b037f3671e638d7ca49ebede1fba8d76ae398755d6843f11a733251a1a"),
    )),
    ("Moreau", "round_robin", 3, None, None, (
        ("681fe90bca8871a5b53c71ef69e3e6884bcef3c2dfbd47773c814c08ab799274",
         "dda56616e9128c895403b7dff7cc8c90356d7c44e98ad7078fae77793684cb3a"),
        ("4b6e41046dcd1e3e2a21361ba1149a516778fd0646d7323236d087da58d15a65",
         "7bac3ce2403f1e500e20ef96d3a7fdc7087db91b57a5e92d6ab2f3a965011850"),
        ("969cf1cd00818a2e55248610583a4e82ae4f38a5733a0238b5c810c59f735973",
         "4f8ab3b6fabfb1499a984abfa4a4c07120bd89947a858508ef52ec82b0bb11e7"),
    )),
]

# queries whose one token matches in one place: ask_per_occurrence
# returns the one answer ask does
SINGLE_OCCURRENCE = (
    '"Thea Ivanov"', '"Nina Schneider"', '"Kara Garcia"',
    '"Frozen Reckoning"', '"Hidden Horizon"', '"Cinema 3"',
    "Symphony", "Savage", "Comedy", "Harbor",
)


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


def _ask(
    engines, backend, query, strategy, per_relation, total, weight,
    per_occurrence=False,
):
    """The case's answer, or with *per_occurrence* its list of
    ask_per_occurrence answers."""
    if per_relation is not None:
        cardinality = MaxTuplesPerRelation(per_relation)
    elif total is not None:
        cardinality = MaxTotalTuples(total)
    else:
        cardinality = None
    degree = WeightThreshold(weight) if weight is not None else None
    engine = _engine(engines, backend)
    ask = engine.ask_per_occurrence if per_occurrence else engine.ask
    return ask(
        query, degree=degree, cardinality=cardinality, strategy=strategy
    )


def _explanation_digest(answer) -> str:
    encoded = json.dumps(answer.explanation.to_dict(), sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


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
    assert _explanation_digest(answer) == digest


@pytest.mark.parametrize(
    "query, strategy, per_relation, total, weight, digest",
    [(*case[:5], case[7]) for case in CASES],
)
def test_plan_unchanged(
    engines, backend, query, strategy, per_relation, total, weight, digest
):
    answer = _ask(
        engines, backend, query, strategy, per_relation, total, weight
    )
    encoded = json.dumps(
        [render_plan(answer), emitted_queries(answer), repr(answer.relevance())]
    )
    assert hashlib.sha256(encoded.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "query, strategy, per_relation, total, weight, digests",
    OCCURRENCE_CASES,
)
def test_per_occurrence_answers_unchanged(
    engines, backend, query, strategy, per_relation, total, weight, digests
):
    answers = _ask(
        engines, backend, query, strategy, per_relation, total, weight,
        per_occurrence=True,
    )
    assert [
        (hashlib.sha256(answer.to_json()).hexdigest(), _explanation_digest(answer))
        for answer in answers
    ] == list(digests)


@pytest.mark.parametrize(
    "query, strategy, per_relation, total, weight",
    [case[:5] for case in CASES if case[0] in SINGLE_OCCURRENCE],
)
def test_single_occurrence_is_the_ask(
    engines, backend, query, strategy, per_relation, total, weight
):
    """One token found in one place: ask_per_occurrence answers exactly
    what ask does, body and EXPLAIN."""
    case = (engines, backend, query, strategy, per_relation, total, weight)
    answer = _ask(*case)
    [occurrence] = _ask(*case, per_occurrence=True)
    assert occurrence.to_json() == answer.to_json()
    assert occurrence.explanation.to_dict() == answer.explanation.to_dict()
