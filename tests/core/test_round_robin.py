"""RoundRobin, the Result Database Generator's access path for 1-to-n
joins (paper §5.2): one scan of joining tuples per driving value, one
tuple per open scan per round. Its fairness, and the modeled charges
behind Figure 9's RoundRobin penalty."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NO_DEADLINE, Deadline, NumericAttributeWeights
from repro.core.database_generator import _fetch_round_robin
from repro.relational import Column, DataType, RelationSchema
from repro.relational.relation import Relation


def _children(spread):
    """One CHILD tuple per entry of *spread*, whose PID is that entry
    (CID counts from 1, and so do the tids), with PID indexed."""
    rel = Relation(
        RelationSchema(
            "CHILD",
            [
                Column("CID", DataType.INT, nullable=False),
                Column("PID", DataType.INT),
            ],
            primary_key="CID",
        )
    )
    for cid, pid in enumerate(spread, start=1):
        rel.insert({"CID": cid, "PID": pid})
    rel.create_index("PID")
    return rel


@pytest.fixture()
def children():
    """10 children: parent 1 has 6 of them, parent 2 has 3, parent 3 has 1."""
    return _children([1, 1, 1, 1, 1, 1, 2, 2, 2, 3])


def round_robin(
    relation, values, budget=None, exclude=(), weigher=None, deadline=NO_DEADLINE
):
    """(new rows, matched already-present tids) of one RoundRobin fetch
    on PID, every column projected."""
    return _fetch_round_robin(
        relation, "PID", values, None, set(exclude), budget, weigher, deadline
    )


def cids(rows):
    return [row["CID"] for row in rows]


class TestRoundRobinCharges:
    """The meter charges behind Figure 9: RoundRobin pays a scan step
    per tuple on top of the reads NaïveQ pays."""

    def test_plain_charges_a_lookup_per_value_and_a_step_and_read_per_visit(
        self, children
    ):
        with children.meter.measure() as m:
            rows, matched = round_robin(
                children, [1, 2, 3], budget=4, exclude={1}
            )
        # round 1 visits CIDs 1 (already held), 7 and 10; round 2
        # visits 2 and 8, and the budget of 4 new tuples is spent
        assert cids(rows) == [7, 10, 2, 8]
        assert matched == {1}
        assert m.delta.index_lookups == 3
        assert m.delta.scan_steps == 5
        assert m.delta.tuple_reads == 5

    def test_plain_visit_of_a_held_tuple_is_charged(self, children):
        with children.meter.measure() as m:
            rows, matched = round_robin(children, [3], exclude={10})
        assert rows == [] and matched == {10}
        assert (m.delta.index_lookups, m.delta.scan_steps) == (1, 1)
        assert m.delta.tuple_reads == 1

    def test_weighted_charges_a_step_per_scan_and_reads_every_match(
        self, children
    ):
        weigher = NumericAttributeWeights("CHILD", "CID")  # higher CID first
        with children.meter.measure() as m:
            rows, matched = round_robin(
                children, [1, 2, 3, 42], budget=4, exclude={9}, weigher=weigher
            )
        # heaviest of each scan first: 6, 9 (held), 10, then 5 and 8
        assert cids(rows) == [6, 10, 5, 8]
        assert matched == {9}
        assert m.delta.index_lookups == 4
        assert m.delta.scan_steps == 4  # one per opened scan, 42's included
        assert m.delta.tuple_reads == 10  # every match of every scan


class ExpiresAfter(Deadline):
    """A deadline that reads expired from its (n + 1)-th check on."""

    def __init__(self, n):
        super().__init__(None)
        self.n = n
        self.calls = 0

    def expired(self):
        self.calls += 1
        return self.calls > self.n


class TestRoundRobinDeadline:
    """An expired deadline bounds each phase: opening the scans, the
    merge, and the batched read."""

    def test_expiry_stops_opening_scans_and_picking(self):
        rel = _children(range(1, 301))  # 300 parents, one child each
        with rel.meter.measure() as m:
            rows, __ = round_robin(rel, range(1, 301), deadline=ExpiresAfter(0))
        assert m.delta.index_lookups == 256  # scans opened before a check
        assert cids(rows) == list(range(1, 65))  # picks before a check
        assert m.delta.tuple_reads == m.delta.scan_steps == 64

    def test_expiry_stops_the_read_after_one_chunk(self):
        rel = _children([1] * 1100)
        # the merge checks after every 64 picks: 17 checks for 1,100
        # picks; the read's first check, before its second chunk, expires
        with rel.meter.measure() as m:
            rows, __ = round_robin(rel, [1], deadline=ExpiresAfter(17))
        assert cids(rows) == list(range(1, 513))
        assert m.delta.tuple_reads == m.delta.scan_steps == 512


class TestRoundRobin:
    def test_fair_spread(self, children):
        """RoundRobin with the same budget covers every driving value."""
        rows, __ = round_robin(children, [1, 2, 3], budget=6)
        pids = [r["PID"] for r in rows]
        assert set(pids) == {1, 2, 3}
        # first full round touches each parent once
        assert pids[:3] == [1, 2, 3]

    def test_exhausted_scans_close(self, children):
        rows, __ = round_robin(children, [3])
        assert cids(rows) == [10]
        # once parent 3's only child is taken its scan closes, and the
        # later rounds take from parent 2 alone
        rows, __ = round_robin(children, [3, 2])
        assert [r["PID"] for r in rows] == [3, 2, 2, 2]

    def test_unlimited_budget_retrieves_all(self, children):
        rows, __ = round_robin(children, [1, 2, 3])
        assert len(rows) == 10

    def test_missing_driving_values_skipped(self, children):
        with children.meter.measure() as m:
            rows, __ = round_robin(children, [42, 2])
        assert m.delta.index_lookups == 2  # 42 is probed, opens no scan
        assert [r["PID"] for r in rows] == [2, 2, 2]

    def test_duplicate_driving_values_deduplicated(self, children):
        with children.meter.measure() as m:
            rows, __ = round_robin(children, [2, 2, 2])
        assert m.delta.index_lookups == 1  # one scan opened
        assert cids(rows) == [7, 8, 9]

    def test_budget_zero(self, children):
        assert round_robin(children, [1, 2], budget=0) == ([], set())

    def test_no_driving_tuple_starves_while_budget_remains(self, children):
        """For any budget >= number of driving values with matches, every

        driving value gets at least one joining tuple (the property the
        paper designed RoundRobin for)."""
        for budget in range(3, 11):
            rows, __ = round_robin(children, [1, 2, 3], budget=budget)
            assert {r["PID"] for r in rows} >= {1, 2, 3}


class TestRoundRobinProperties:
    @given(
        spread=st.lists(st.integers(1, 5), min_size=1, max_size=8),
        budget=st.integers(0, 60),
    )
    @settings(max_examples=80, deadline=None)
    def test_no_starvation_and_budget(self, spread, budget):
        """RoundRobin never exceeds the budget, never starves a driving

        value while budget remains, and spreads counts within ±1 until a
        scan is exhausted."""
        rel = _children(
            [pid for pid, n in enumerate(spread, start=1) for __ in range(n)]
        )
        driving = list(range(1, len(spread) + 1))
        taken, __ = round_robin(rel, driving, budget=budget)
        assert len(taken) == min(budget, sum(spread))
        per_value = {pid: 0 for pid in driving}
        for row in taken:
            per_value[row["PID"]] += 1
        if budget >= len(driving):
            # one full round fits: nobody starves
            assert all(count >= 1 for count in per_value.values())
        # fairness: counts differ by at most 1 unless a scan ran dry
        for pid, count in per_value.items():
            others = [
                c
                for other, c in per_value.items()
                if other != pid and c < spread[other - 1]
            ]
            if count < spread[pid - 1] and others:
                assert count >= max(others) - 1
