"""Direct unit tests for the ResultSchema container."""

import dataclasses

import pytest

from repro.core.result_schema import ResultSchema, join_walk
from repro.graph import Path
from repro.graph.schema_graph import JoinEdge, ProjectionEdge


def _schema_with_paths():
    a_title = Path.seed(ProjectionEdge("A", "TITLE", 1.0))
    a_to_c = Path.seed(JoinEdge("A", "C", "K", "K", 0.9)).extend(
        ProjectionEdge("C", "NAME", 1.0)
    )
    b_to_c = Path.seed(JoinEdge("B", "C", "K2", "K2", 0.8)).extend(
        ProjectionEdge("C", "NAME", 0.9)
    )
    deep = (
        Path.seed(JoinEdge("A", "C", "K", "K", 0.9))
        .extend(JoinEdge("C", "D", "J", "J", 0.7))
        .extend(ProjectionEdge("D", "LABEL", 1.0))
    )
    return ResultSchema(("A", "B"), (a_title, a_to_c, b_to_c, deep))


def _join(source, target, weight):
    return JoinEdge(source, target, "K", "K", weight)


def _projected(*joins):
    """The projection path along *joins* to the last target's NAME."""
    path = Path.seed(joins[0])
    for edge in joins[1:]:
        path = path.extend(edge)
    return path.extend(ProjectionEdge(joins[-1].target, "NAME", 1.0))


class TestAccumulation:
    def test_relations_first_appearance_order(self):
        schema = _schema_with_paths()
        assert schema.relations == ("A", "C", "B", "D")

    def test_join_path_rejected(self):
        join_only = Path.seed(JoinEdge("A", "B", "K", "K", 0.5))
        with pytest.raises(ValueError):
            ResultSchema(("A",), (join_only,))

    def test_empty(self):
        schema = ResultSchema(origin_relations=("A",))
        assert schema.is_empty()
        assert schema.relations == ()
        assert schema.join_edges == ()
        assert schema.walk == ()


class TestImmutable:
    def test_fields_cannot_be_assigned(self):
        schema = _schema_with_paths()
        with pytest.raises(dataclasses.FrozenInstanceError):
            schema.stop = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            schema.relations = ()

    def test_paths_are_a_tuple_and_nothing_admits(self):
        schema = ResultSchema(["A"], [Path.seed(ProjectionEdge("A", "X", 1.0))])
        assert schema.projection_paths == (
            Path.seed(ProjectionEdge("A", "X", 1.0)),
        )
        assert schema.origin_relations == ("A",)
        assert not hasattr(schema, "admit")


class TestDerivedViews:
    def test_attributes_of(self):
        schema = _schema_with_paths()
        assert schema.attributes_of("A") == ("TITLE",)
        assert schema.attributes_of("C") == ("NAME",)
        assert schema.attributes_of("D") == ("LABEL",)
        assert schema.attributes_of("NOPE") == ()

    def test_projected_attributes(self):
        schema = _schema_with_paths()
        assert schema.projected_attributes == {
            ("A", "TITLE"), ("C", "NAME"), ("D", "LABEL"),
        }

    def test_join_edges_deduplicated(self):
        schema = _schema_with_paths()
        pairs = [(e.source, e.target) for e in schema.join_edges]
        assert pairs == [("A", "C"), ("B", "C"), ("C", "D")]

    def test_in_degrees(self):
        schema = _schema_with_paths()
        degrees = {r: schema.in_degree(r) for r in schema.relations}
        assert degrees == {"A": 0, "B": 0, "C": 2, "D": 1}
        assert schema.in_degree("NOPE") == 0

    def test_edges_from(self):
        schema = _schema_with_paths()
        assert [e.target for e in schema.edges_from("A")] == ["C"]
        assert [e.target for e in schema.edges_from("C")] == ["D"]
        assert schema.edges_from("D") == ()

    def test_retrieval_attributes_add_join_columns(self):
        schema = _schema_with_paths()
        assert schema.retrieval_attributes("C") == ("NAME", "K", "K2", "J")
        assert schema.retrieval_attributes("A") == ("TITLE", "K")

    def test_describe_mentions_origins_and_degrees(self):
        schema = _schema_with_paths()
        text = schema.describe()
        assert "* A(TITLE)" in text
        assert "in-degree=2" in text


class TestWalk:
    """``walk``: the join edges in the order Figure 5 executes them."""

    def test_heaviest_ready_edge_first(self):
        schema = _schema_with_paths()
        pairs = [(e.source, e.target) for e in schema.walk]
        assert pairs == [("A", "C"), ("B", "C"), ("C", "D")]

    def test_joins_leave_a_relation_after_all_its_arrivals(self):
        a_c, c_d, b_c = _join("A", "C", 0.9), _join("C", "D", 0.85), _join(
            "B", "C", 0.5
        )
        schema = ResultSchema(("A", "B"), (_projected(a_c, c_d), _projected(b_c)))
        # C -> D outweighs B -> C, but C still awaits B's arrival
        assert schema.walk == (a_c, b_c, c_d)

    def test_cycle_falls_back_to_the_heaviest_runnable_edge(self):
        a_b, b_a = _join("A", "B", 0.5), _join("B", "A", 0.9)
        schema = ResultSchema(("A", "B"), (_projected(a_b), _projected(b_a)))
        # both origins await an arrival: nothing is ready
        assert schema.walk == (b_a, a_b)

    def test_admission_order_pick(self):
        a_b, a_c = _join("A", "B", 0.6), _join("A", "C", 0.9)
        schema = ResultSchema(("A",), (_projected(a_b), _projected(a_c)))
        assert schema.walk == (a_c, a_b)
        fifo = join_walk(
            schema.join_edges, schema.origin_relations, pick=lambda p: p[0]
        )
        assert fifo == (a_b, a_c)

    def test_starts_at_the_origins(self):
        c_d = _join("C", "D", 0.9)
        # no path joins into C, and C is not an origin: C -> D never runs
        assert join_walk((c_d,), ("A",)) == ()
        assert join_walk((c_d,), ("C",)) == (c_d,)
