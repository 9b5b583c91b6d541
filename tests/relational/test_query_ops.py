"""Unit tests for the RoundRobin scan cursors and their fairness

property (paper §5.2)."""

import pytest

from repro.relational import (
    Column,
    DataType,
    RelationSchema,
    RoundRobinScans,
)
from repro.relational.relation import Relation


@pytest.fixture()
def children():
    """10 children: parent 1 has 6 of them, parent 2 has 3, parent 3 has 1."""
    schema = RelationSchema(
        "CHILD",
        [
            Column("CID", DataType.INT, nullable=False),
            Column("PID", DataType.INT),
        ],
        primary_key="CID",
    )
    rel = Relation(schema)
    spread = [1, 1, 1, 1, 1, 1, 2, 2, 2, 3]
    for cid, pid in enumerate(spread, start=1):
        rel.insert({"CID": cid, "PID": pid})
    rel.create_index("PID")
    return rel


class TestRoundRobin:
    def test_fair_spread(self, children):
        """RoundRobin with the same budget covers every driving value."""
        scans = RoundRobinScans(children, "PID", [1, 2, 3])
        rows = scans.take(6)
        pids = [r["PID"] for r in rows]
        assert set(pids) == {1, 2, 3}
        # first full round touches each parent once
        assert pids[:3] == [1, 2, 3]

    def test_exhausted_scans_close(self, children):
        scans = RoundRobinScans(children, "PID", [3])
        rows = scans.take(None)
        assert len(rows) == 1
        assert scans.exhausted()
        assert scans.next_tuple() is None

    def test_unlimited_budget_retrieves_all(self, children):
        scans = RoundRobinScans(children, "PID", [1, 2, 3])
        rows = scans.take(None)
        assert len(rows) == 10

    def test_missing_driving_values_skipped(self, children):
        scans = RoundRobinScans(children, "PID", [42, 2])
        assert scans.open_scans == 1
        assert len(scans.take(None)) == 3

    def test_duplicate_driving_values_deduplicated(self, children):
        scans = RoundRobinScans(children, "PID", [2, 2, 2])
        assert scans.open_scans == 1
        assert len(scans.take(None)) == 3

    def test_budget_zero(self, children):
        scans = RoundRobinScans(children, "PID", [1, 2])
        assert scans.take(0) == []

    def test_no_driving_tuple_starves_while_budget_remains(self, children):
        """For any budget >= number of driving values with matches, every

        driving value gets at least one joining tuple (the property the
        paper designed RoundRobin for)."""
        for budget in range(3, 11):
            scans = RoundRobinScans(children, "PID", [1, 2, 3])
            rows = scans.take(budget)
            assert {r["PID"] for r in rows} >= {1, 2, 3}
