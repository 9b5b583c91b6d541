"""The result schema ``D'`` — output of the Result Schema Generator (§5.1).

A :class:`ResultSchema` is the sub-graph ``G'`` of the database schema
graph: the relations holding query tokens, the relations transitively
joining to them along admitted projection paths, the projected attributes,
and the join edges connecting them. It also records, per relation, the
**in-degree** used by the Result Database Generator to postpone joins
departing from relations still awaiting arrivals (paper §5.1–5.2).

The schema generator builds it once and it never changes, so the plan
cache can hand one instance to every ask with the same tokens. Its
constructor derives every view the later stages read, among them
:attr:`ResultSchema.walk`, the join order of Figure 5.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..graph.paths import Path
from ..graph.schema_graph import JoinEdge
from ..obs.explain import SchemaStop
from ..relational.schema import DatabaseSchema, ForeignKey

__all__ = ["ResultSchema", "join_walk"]


def _heaviest(pool: Sequence[JoinEdge]) -> JoinEdge:
    return max(pool, key=lambda e: (e.weight, e.key))


def join_walk(
    edges: Sequence[JoinEdge],
    origins: Iterable[str],
    pick: Callable[[Sequence[JoinEdge]], JoinEdge] = _heaviest,
) -> tuple[JoinEdge, ...]:
    """*edges* in the order Figure 5 executes them, starting from *origins*.

    An edge can run once its source is an origin or the target of an
    edge already run; it is *ready* once every edge into its source has
    run (the paper's postponement). *pick* chooses among the ready
    edges — by default the heaviest, so the relations most related to
    the query are populated first — or, when a cycle in ``G'`` leaves
    none ready, among all runnable ones. A run edge counts as an
    arrival whether or not it yields tuples: the order depends on
    ``G'`` alone.
    """
    in_degree = Counter(edge.target for edge in edges)
    populated = set(origins)
    pending = list(edges)
    walk: list[JoinEdge] = []
    while True:
        runnable = [e for e in pending if e.source in populated]
        if not runnable:
            return tuple(walk)
        ready = [e for e in runnable if not in_degree[e.source]]
        edge = pick(ready or runnable)
        pending.remove(edge)
        in_degree[edge.target] -= 1
        populated.add(edge.target)
        walk.append(edge)


@dataclass(frozen=True)
class ResultSchema:
    """Sub-schema selected for a précis answer (immutable)."""

    #: relations in which query tokens were found (the traversal roots)
    origin_relations: tuple[str, ...]
    #: admitted projection paths, in admission (decreasing-weight) order
    projection_paths: tuple[Path, ...] = ()
    #: how the Figure 3 traversal ended (EXPLAIN provenance): the
    #: degree-constraint failure that cut the queue, or queue
    #: exhaustion. Riding on the schema means plan-cache hits keep
    #: serving the original stop reason.
    stop: Optional[SchemaStop] = None

    #: relations present in ``G'``, in first-appearance order
    relations: tuple[str, ...] = field(init=False)
    #: distinct join edges of ``G'``, in first-appearance order
    join_edges: tuple[JoinEdge, ...] = field(init=False)
    #: the join edges in the order Figure 5 executes them (:func:`join_walk`)
    walk: tuple[JoinEdge, ...] = field(init=False)
    #: (relation, attribute) of every projected attribute
    projected_attributes: frozenset[tuple[str, str]] = field(init=False)

    def __post_init__(self):
        paths = tuple(self.projection_paths)
        if not all(path.is_projection_path for path in paths):
            raise ValueError("only projection paths enter the result schema")
        visible: dict[str, dict[str, None]] = {}
        admitting: dict[str, Path] = {}
        joins: dict[tuple, JoinEdge] = {}
        for path in paths:
            for relation in path.relations():
                visible.setdefault(relation, {})
                admitting.setdefault(relation, path)
            for edge in path.joins:
                joins.setdefault(edge.key, edge)
            relation, attribute = path.terminal_attribute
            visible[relation][attribute] = None
        edges = tuple(joins.values())
        retrieval = {name: dict(attrs) for name, attrs in visible.items()}
        edges_from: dict[str, list[JoinEdge]] = {}
        for edge in edges:
            retrieval[edge.source].setdefault(edge.source_attribute, None)
            retrieval[edge.target].setdefault(edge.target_attribute, None)
            edges_from.setdefault(edge.source, []).append(edge)

        init = object.__setattr__  # frozen: every view is set here, once
        init(self, "origin_relations", tuple(self.origin_relations))
        init(self, "projection_paths", paths)
        init(self, "relations", tuple(visible))
        init(self, "join_edges", edges)
        init(self, "walk", join_walk(edges, self.origin_relations))
        init(self, "projected_attributes", frozenset(
            path.terminal_attribute for path in paths
        ))
        init(self, "_visible", {n: tuple(a) for n, a in visible.items()})
        init(self, "_retrieval", {n: tuple(a) for n, a in retrieval.items()})
        init(self, "_in_degree", Counter(edge.target for edge in edges))
        init(self, "_edges_from", {n: tuple(e) for n, e in edges_from.items()})
        init(self, "_admitting", admitting)
        # [(source schema, answer schema)] once answer_schema() ran
        init(self, "_answer_schema", [None])

    # ------------------------------------------------------------- queries

    def is_empty(self) -> bool:
        return not self.projection_paths

    def attributes_of(self, relation: str) -> tuple[str, ...]:
        """Attributes of *relation* projected in the answer (visible to

        the user), in admission order."""
        return self._visible.get(relation, ())

    def in_degree(self, relation: str) -> int:
        """Number of ``G'`` join edges arriving at *relation*.

        The paper marks each relation reached by paths from several input
        relations and counts arrivals; the walk only lets joins *depart*
        from a relation once all of its arrivals have executed.
        """
        return self._in_degree[relation]

    def retrieval_attributes(self, relation: str) -> tuple[str, ...]:
        """Attributes that must be *retrieved* for a relation: the

        projected (visible) ones plus any join attributes used by ``G'``
        edges touching the relation. The paper notes these extra
        attributes "will not show in the final answer, since they are not
        included in the result schema" — they exist so subsequent joins
        can be driven.
        """
        return self._retrieval.get(relation, ())

    def admitting_path(self, relation: str) -> Path:
        """The first admitted path reaching *relation*: the one that

        brought it into ``G'`` (EXPLAIN provenance)."""
        return self._admitting[relation]

    def edges_from(self, relation: str) -> tuple[JoinEdge, ...]:
        """Join edges of ``G'`` leaving *relation*, in first-appearance
        order."""
        return self._edges_from.get(relation, ())

    def answer_schema(self, source: DatabaseSchema) -> DatabaseSchema:
        """Schema of the answer over *source*: each relation projected

        on its *retrieval* attributes, plus the foreign keys of *source*
        that run along a ``G'`` join edge — the reverse direction of a
        foreign key is a join worth following but not a constraint (a
        DIRECTOR row without movies is legal; a CAST row without its
        MOVIE is not). Built on the first call and kept while *source*
        is the same object: every ask sharing this plan shares it
        (nothing in the package changes a built ``DatabaseSchema``).
        """
        # one (source, schema) pair, read and replaced whole: threads
        # building it at once each get one built from their own source
        built = self._answer_schema[0]
        if built is None or built[0] is not source:
            inherited = set(source.foreign_keys)
            joins = [
                ForeignKey(e.source, e.source_attribute, e.target,
                           e.target_attribute)
                for e in self.join_edges
            ]
            built = self._answer_schema[0] = (source, DatabaseSchema(
                [source.relation(n).project(a)
                 for n, a in self._retrieval.items()],
                [fk for fk in joins if fk in inherited],
            ))
        return built[1]

    # ------------------------------------------------------------- display

    def describe(self) -> str:
        """Human-readable multi-line summary (used by the examples)."""
        lines = []
        for relation in self.relations:
            visible = ", ".join(self.attributes_of(relation)) or "—"
            marker = "*" if relation in self.origin_relations else " "
            lines.append(
                f"{marker} {relation}({visible})  in-degree={self.in_degree(relation)}"
            )
        for edge in self.join_edges:
            lines.append(
                f"    {edge.source}.{edge.source_attribute} → "
                f"{edge.target}.{edge.target_attribute}  w={edge.weight:g}"
            )
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"ResultSchema({len(self.relations)} relations, "
            f"{len(self.projected_attributes)} attributes, "
            f"{len(self.projection_paths)} paths)"
        )
