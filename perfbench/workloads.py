"""Seeded inputs of the three benchmark workloads.

Everything here is a pure function of the workload spec, the seed and
the generated database directory: the same seed gives the same query
catalog, arrival schedule and operation stream, byte for byte (see
``test_workloads.py``). The program under test receives only the
generated files; these lists stay on the benchmark's side.
"""

from __future__ import annotations

import collections
import csv
import itertools
import random
from pathlib import Path
from urllib.parse import urlencode

#: workload name -> fixed parameters (why each workload exists is in
#: BENCHMARK.json). Rates are fixed here, never calibrated from the
#: machine, so a faster program is offered the same load as a slower one.
SPECS = {
    "serve-hot": {
        "kind": "served",
        "movies": 2000,
        "rate_rps": 250.0,
        "catalog": 500,
        "zipf_s": 1.1,
        "cache_size": 1024,
        # the run's schedule is one block of seconds / replays, sent
        # this many times; the program's CPU time is read every slice_s
        "replays": 20,
        "slice_s": 0.25,
    },
    "serve-cold": {
        "kind": "served",
        "movies": 10000,
        "rate_rps": 15.0,
        "mix": {"name": 4, "word": 1},
        "replays": 5,
        "slice_s": 0.5,
        "ladder_rps": [28.0, 40.0, 56.0],
        "ladder_rung_s": 3.0,
        "ladder_limit_ms": 250.0,
    },
    "library-rw": {
        "kind": "library",
        "movies": 2000,
        "catalog": 5000,
        "zipf_s": 0.8,
        "mix": {"ask": 27, "insert": 1, "update": 1, "delete": 1},
        # replayed until the run ends; a multiple of 60 (two cycles of
        # the mix) closes every insert/delete and retitle/restore pair
        "block_ops": 2400,
    },
}

#: at most nproc (= 2 on the reference host) connections or threads
CONNECTIONS = 2


# ------------------------------------------------------------ vocabulary


def _rows(data_dir: Path, relation: str) -> list[dict]:
    with open(Path(data_dir) / f"{relation}.csv", newline="") as stream:
        return list(csv.DictReader(stream))


def vocabulary(data_dir) -> dict:
    """Query material read from a generated movies directory: person
    names, title head/tail word pairs, full titles, single words, and
    the keys a write stream needs."""
    movies = _rows(data_dir, "MOVIE")
    people = [r["ANAME"] for r in _rows(data_dir, "ACTOR")] + [
        r["DNAME"] for r in _rows(data_dir, "DIRECTOR")
    ]
    genres = sorted({r["GENRE"] for r in _rows(data_dir, "GENRE")})
    names = sorted(set(people))
    actor_of = {r["AID"]: r["ANAME"] for r in _rows(data_dir, "ACTOR")}
    director_of = {r["DID"]: r["DNAME"] for r in _rows(data_dir, "DIRECTOR")}
    movie_counts = collections.Counter(
        actor_of[r["AID"]] for r in _rows(data_dir, "CAST")
    )
    movie_counts.update(director_of[r["DID"]] for r in movies)
    titles = [r["TITLE"] for r in movies]
    pairs = sorted({" ".join(t.split()[:2]) for t in titles})
    words = sorted(
        {w for name in people for w in name.split()}
        | {w for pair in pairs for w in pair.split()}
        | set(genres)
    )
    return {
        "names": names,
        "movie_counts": [movie_counts[n] for n in names],
        "pairs": pairs,
        "titles": titles,
        "words": words,
        "genres": genres,
        "mids": [int(r["MID"]) for r in movies],
        "dids": sorted({int(r["DID"]) for r in movies}),
        "aids": sorted(int(r["AID"]) for r in _rows(data_dir, "ACTOR")),
        "tids": [int(r["TID"]) for r in _rows(data_dir, "THEATRE")],
        "plays": [
            [int(r["TID"]), int(r["MID"]), r["DATE"]]
            for r in _rows(data_dir, "PLAY")
        ],
    }


def phrase(text: str) -> str:
    return f'"{text}"'


def ask_target(query: str, per_relation) -> str:
    """The /ask request target of one catalog entry."""
    params = {"q": query}
    if per_relation is not None:
        params["per_relation"] = per_relation
    return "/ask?" + urlencode(params)


# ------------------------------------------------------------- catalogs


def interleave(weights: dict):
    """Smooth weighted round robin: an endless sequence of the keys of
    *weights*, each as often as its weight and evenly spread. Fixing
    the mix of query and operation kinds by position keeps the work of
    one seed close to another's; the seed picks the instances."""
    current = dict.fromkeys(weights, 0)
    total = sum(weights.values())
    while True:
        for key, weight in weights.items():
            current[key] += weight
        best = max(current, key=current.get)
        current[best] -= total
        yield best


def _stratified(pools: dict, weights: dict, n: int, rng) -> list:
    """Up to *n* entries drawn from shuffled *pools* in the order
    :func:`interleave` gives their kinds; an exhausted pool is skipped."""
    remaining = {}
    for kind, pool in pools.items():
        pool = list(pool)
        rng.shuffle(pool)
        remaining[kind] = pool
    out = []
    for kind in interleave(weights):
        if len(out) == n or not any(remaining.values()):
            return out
        if remaining[kind]:
            out.append(remaining[kind].pop())


def catalog(name: str, vocab: dict, seed: int) -> list[tuple[str, object]]:
    """The workload's query catalog: ``(query text, per_relation)``
    pairs, ``per_relation`` None meaning unbounded. Zipf workloads rank
    it by position."""
    spec = SPECS[name]
    rng = random.Random(f"catalog:{name}:{seed}")
    names = [phrase(n) for n in vocab["names"]]
    pairs = [phrase(p) for p in vocab["pairs"]]
    words = vocab["words"]
    if name == "serve-hot":
        pools = {
            "name": [(q, 10) for q in names],
            "pair": [(q, 10) for q in pairs],
            "word": [(q, 10) for q in words],
        }
        weights = {"name": 5, "pair": 4, "word": 1}
        return _stratified(pools, weights, spec["catalog"], rng)
    if name == "serve-cold":
        return [(q, None) for q in names] + [(q, 10) for q in words]
    if name == "library-rw":
        titles = [phrase(t) for t in vocab["titles"]]
        pools = {
            kind: [(q, k) for q in queries for k in (5, 10)]
            for kind, queries in (
                ("title", titles), ("name", names), ("pair", pairs),
                ("word", words),
            )
        }
        weights = {"title": 26, "name": 4, "pair": 2, "word": 1}
        return _stratified(pools, weights, spec["catalog"], rng)
    raise KeyError(name)


def zipf_cum_weights(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (k**s) for k in range(1, n + 1)))


# ------------------------------------------------------- served schedule


def poisson_schedule(rate: float, seconds: float, rng: random.Random):
    """Arrival offsets (s) of a Poisson process over ``[0, seconds)``
    conditioned on its expected count: ``rate * seconds`` sorted
    uniform instants. Every seed offers the same number of requests;
    the gaps stay exponential."""
    return sorted(rng.uniform(0, seconds) for _ in range(round(rate * seconds)))


def served_plan(
    name: str, vocab: dict, seed: int, seconds: float, rate=None
) -> list[tuple[float, int]]:
    """``(offset_s, catalog index)`` for every request of one open-loop
    phase at *rate* (default: the workload's fixed rate)."""
    spec = SPECS[name]
    rate = spec["rate_rps"] if rate is None else rate
    entries = catalog(name, vocab, seed)
    rng = random.Random(f"plan:{name}:{seed}:{rate:g}:{seconds:g}")
    times = poisson_schedule(rate, seconds, rng)
    if name == "serve-hot":
        cum = zipf_cum_weights(len(entries), spec["zipf_s"])
        picks = rng.choices(range(len(entries)), cum_weights=cum, k=len(times))
    else:
        n_names = len(vocab["names"])
        kinds = list(itertools.islice(interleave(spec["mix"]), len(times)))
        # person names by how many movies they are in: a name's answer
        # grows with its movies, so the phase takes one name from each
        # of equal slices of that order, shuffled
        by_movies = sorted(
            range(n_names), key=lambda i: (vocab["movie_counts"][i], i)
        )
        names = _one_per_slice(by_movies, kinds.count("name"), rng)
        rng.shuffle(names)
        picks = [
            names.pop() if kind == "name"
            else n_names + rng.randrange(len(entries) - n_names)
            for kind in kinds
        ]
    return list(zip(times, picks))


def _one_per_slice(order: list, k: int, rng) -> list:
    """One random member of each of *k* equal consecutive slices of
    *order* (slices may repeat members when *k* exceeds its length)."""
    n = len(order)
    return [
        order[rng.randrange(j * n // k, max(j * n // k + 1, (j + 1) * n // k))]
        for j in range(k)
    ]


# ------------------------------------------------------ library stream


def library_ops(vocab: dict, seed: int) -> list:
    """One block of the closed-loop operations of ``library-rw``:
    ``SPECS["library-rw"]["block_ops"]`` operations, 90% asks (Zipf
    over the catalog) and 10% writes, kinds interleaved. A write is a
    list of ``SynchronizedWriter`` calls:

    * insert a movie with its genre, cast and play rows;
    * update one movie's title; every second update puts the previous
      one's title back;
    * delete the oldest inserted movie: its play, cast and genre rows,
      then the movie (rows are named by key).

    The block leaves the database as it found it, so replaying it gives
    the program the same work each time, however fast it runs.
    """
    spec = SPECS["library-rw"]
    rng = random.Random(f"ops:library-rw:{seed}")
    entries = catalog("library-rw", vocab, seed)
    cum = zipf_cum_weights(len(entries), spec["zipf_s"])
    titles = dict(zip(vocab["mids"], vocab["titles"]))
    next_mid = max(vocab["mids"]) + 1
    inserted = collections.deque()  # the row keys of each inserted movie
    retitled = None  # (mid, original title) of the movie last retitled
    heads = sorted({p.split()[0] for p in vocab["pairs"]})
    tails = sorted({p.split()[1] for p in vocab["pairs"]})
    ops = []
    for kind in itertools.islice(interleave(spec["mix"]), spec["block_ops"]):
        if kind == "ask":
            query, k = entries[rng.choices(range(len(entries)), cum_weights=cum)[0]]
            ops.append(["ask", query, k])
            continue
        if kind == "insert":
            mid = next_mid
            next_mid += 1
            play = [rng.choice(vocab["tids"]), mid, f"2006-01-{rng.randint(1, 28):02d}"]
            genres = rng.sample(vocab["genres"], rng.randint(1, 3))
            aids = rng.sample(vocab["aids"], rng.randint(2, 4))
            calls = [["insert", "MOVIE", {
                "MID": mid,
                "TITLE": f"{rng.choice(heads)} {rng.choice(tails)} {mid}",
                "YEAR": rng.randint(1960, 2005),
                "DID": rng.choice(vocab["dids"]),
            }]]
            calls += [["insert", "GENRE", {"MID": mid, "GENRE": g}] for g in genres]
            calls += [["insert", "CAST", {
                "MID": mid, "AID": aid, "ROLE": rng.choice(vocab["names"]),
            }] for aid in aids]
            calls.append(["insert", "PLAY", dict(zip(("TID", "MID", "DATE"), play))])
            inserted.append(
                [["PLAY", play]]
                + [["CAST", [mid, aid]] for aid in aids]
                + [["GENRE", [mid, g]] for g in genres]
                + [["MOVIE", [mid]]]
            )
        elif kind == "update":
            if retitled is None:
                mid = rng.choice(vocab["mids"])
                retitled = (mid, titles[mid])
                title = f"{rng.choice(heads)} {rng.choice(tails)} {mid}"
            else:
                (mid, title), retitled = retitled, None
            calls = [["update", "MOVIE", mid, {"TITLE": title}]]
        else:
            calls = [["delete", rel, key] for rel, key in inserted.popleft()]
        ops.append(["write", kind, calls])
    if inserted or retitled is not None:
        raise ValueError("block_ops must end every insert and update pair")
    return ops
