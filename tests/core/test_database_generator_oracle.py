"""Oracle test: unconstrained generation equals reachability closure.

For an *acyclic* result schema and no cardinality constraint, the
Figure 5 walk (every edge executed once, after all arrivals at its
source) must produce exactly the value-join closure of the seeds: every
target tuple reachable from a seed along ``G'`` edges, however many
hops away. The oracle computes that closure by naive fixpoint iteration
and compares per-relation tuple sets on randomly generated trees of
relations with random data.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Unlimited, generate_result_database, generate_result_schema
from repro.core.constraints import WeightThreshold
from repro.graph import SchemaGraph
from repro.relational import (
    Column,
    Database,
    DatabaseSchema,
    DataType,
    RelationSchema,
)


def _random_tree_instance(seed: int):
    """A random tree of 2–5 relations; each non-root references its

    parent via REF; random tuples with random reference values
    (possibly dangling, to exercise partial joins)."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    parents = {0: None}
    for i in range(1, n):
        parents[i] = rng.randrange(i)

    relations = []
    for i in range(n):
        columns = [Column("ID", DataType.INT, nullable=False)]
        if parents[i] is not None:
            columns.append(Column("REF", DataType.INT))
        relations.append(RelationSchema(f"T{i}", columns, primary_key="ID"))
    schema = DatabaseSchema(relations)
    db = Database(schema, enforce_foreign_keys=False)

    ids: dict[int, list[int]] = {}
    next_id = 1
    for i in range(n):
        ids[i] = []
        for __ in range(rng.randint(1, 8)):
            row = {"ID": next_id}
            if parents[i] is not None:
                pool = ids[parents[i]]
                # mix of valid and dangling references
                row["REF"] = (
                    rng.choice(pool) if pool and rng.random() < 0.8
                    else rng.randint(100, 120)
                )
            db.insert(f"T{i}", row)
            ids[i].append(next_id)
            next_id += 1
    db.create_join_indexes()
    for i in range(1, n):
        if not db.relation(f"T{i}").has_index("REF"):
            db.relation(f"T{i}").create_index("REF")

    graph = SchemaGraph()
    for i in range(n):
        graph.add_relation(f"T{i}")
        graph.add_attribute(f"T{i}", "ID", 1.0)
        if parents[i] is not None:
            graph.add_attribute(f"T{i}", "REF", 0.2)
    for i in range(1, n):
        graph.add_join(f"T{parents[i]}", f"T{i}", "ID", "REF", 1.0)
    return db, graph, parents, n


def _closure(db, result_schema, seeds):
    """Fixpoint value-join closure of the seeds along G' edges."""
    reached = {name: set() for name in result_schema.relations}
    for relation, tids in seeds.items():
        if relation in reached:
            reached[relation] |= set(tids)
    changed = True
    while changed:
        changed = False
        for edge in result_schema.join_edges:
            source = db.relation(edge.source)
            target = db.relation(edge.target)
            values = {
                source.fetch(tid)[edge.source_attribute]
                for tid in reached[edge.source]
            }
            new = target.lookup_in(edge.target_attribute, values)
            if not new <= reached[edge.target]:
                reached[edge.target] |= new
                changed = True
    return reached


class TestUnconstrainedEqualsClosure:
    @given(seed=st.integers(0, 5000), seed_count=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_generator_matches_fixpoint(self, seed, seed_count):
        db, graph, parents, n = _random_tree_instance(seed)
        result_schema = generate_result_schema(
            graph, ["T0"], WeightThreshold(0.9)
        )
        root_tids = list(db.relation("T0").tids())
        seeds = {"T0": set(root_tids[:seed_count])}
        __, report = generate_result_database(
            db, result_schema, seeds, Unlimited()
        )
        expected = _closure(db, result_schema, seeds)
        # compare via the report's tid maps (they key by *source* tids)
        for relation in result_schema.relations:
            got = set(report.tid_maps.get(relation, {}))
            assert got == expected[relation], (
                relation, got, expected[relation],
            )
