"""Seeded inputs are reproducible; percentiles follow the ten-beyond rule.

Run from the repository root: ``python -m pytest perfbench``.
"""

import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from measure import beyond, describe, percentile, supported  # noqa: E402
from workloads import (  # noqa: E402
    SPECS, catalog, library_ops, served_plan, vocabulary,
)


@pytest.fixture(scope="module")
def vocab(tmp_path_factory):
    from repro.cli import main

    data = tmp_path_factory.mktemp("data") / "movies"
    args = ["init-demo", str(data), "--movies", "200", "--seed", "3"]
    assert main(args, out=io.StringIO()) == 0
    return vocabulary(data)


@pytest.mark.parametrize("workload", ["serve-hot", "serve-cold"])
def test_served_schedule_and_queries_follow_the_seed(vocab, workload):
    first = served_plan(workload, vocab, seed=7, seconds=5)
    assert first == served_plan(workload, vocab, seed=7, seconds=5)
    assert catalog(workload, vocab, 7) == catalog(workload, vocab, 7)
    other = served_plan(workload, vocab, seed=8, seconds=5)
    assert [t for t, _ in other] != [t for t, _ in first]
    assert [i for _, i in other] != [i for _, i in first]


def test_library_block_follows_the_seed(vocab):
    first = library_ops(vocab, seed=7)
    assert len(first) == SPECS["library-rw"]["block_ops"]
    assert first == library_ops(vocab, seed=7)
    assert first != library_ops(vocab, seed=8)
    assert catalog("library-rw", vocab, 7) != catalog("library-rw", vocab, 8)


def test_library_block_mixes_asks_and_each_write_kind(vocab):
    ops = library_ops(vocab, seed=7)
    writes = [op for op in ops if op[0] == "write"]
    assert 0.07 < len(writes) / len(ops) < 0.13
    assert {op[1] for op in writes} == {"insert", "update", "delete"}


def test_library_block_leaves_the_database_as_it_found_it(vocab):
    """Replaying the block gives the same work each time: every row it
    inserts it deletes, and every title it changes it puts back."""
    rows, titles = set(), dict(zip(vocab["mids"], vocab["titles"]))
    keys = {"MOVIE": ("MID",), "GENRE": ("MID", "GENRE"),
            "CAST": ("MID", "AID"), "PLAY": ("TID", "MID", "DATE")}
    changed = dict(titles)
    for op in library_ops(vocab, seed=7):
        for call in op[2] if op[0] == "write" else ():
            verb, relation = call[0], call[1]
            if verb == "insert":
                row = (relation, tuple(call[2][k] for k in keys[relation]))
                assert row not in rows
                rows.add(row)
            elif verb == "delete":
                rows.remove((relation, tuple(call[2])))
            else:
                changed[call[2]] = call[3]["TITLE"]
    assert not rows
    assert changed == titles


def test_cold_names_cover_every_slice_of_movie_counts(vocab):
    plan = served_plan("serve-cold", vocab, seed=7, seconds=20)
    n_names = len(vocab["names"])
    picked = sorted(
        vocab["movie_counts"][i] for _, i in plan if i < n_names
    )
    counts = sorted(vocab["movie_counts"])
    # one name from each equal slice: the picks track the quartiles
    for q in (0.25, 0.5, 0.75):
        assert abs(
            picked[int(q * len(picked))] - counts[int(q * len(counts))]
        ) <= 1


def test_rates_are_fixed_not_calibrated(vocab):
    for workload in ("serve-hot", "serve-cold"):
        plan = served_plan(workload, vocab, seed=1, seconds=20)
        assert len(plan) == round(SPECS[workload]["rate_rps"] * 20)
        assert all(0 <= t < 20 for t, _ in plan)
        assert [t for t, _ in plan] == sorted(t for t, _ in plan)


def test_percentile_discipline():
    assert beyond(1000, 99) == 10 and supported(1000, 99)
    assert beyond(999, 99) == 9 and not supported(999, 99)
    assert supported(100, 90) and not supported(99, 90)
    assert percentile(list(range(1, 101)), 50) == 50
    assert percentile(list(range(1, 101)), 90) == 90
    lines = describe("x", [1.0] * 500)
    assert "n=500" in lines[0]
    assert "omitted" in lines[2] and "5 beyond" in lines[2]
