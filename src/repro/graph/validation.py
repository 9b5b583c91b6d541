"""Consistency checks between a schema graph and a database schema.

Hand-authored or JSON-loaded graphs drift: a renamed column, a dropped
relation, a join on mismatched types. The engine's generators would
surface these as confusing empty answers; :func:`validate_graph` turns
them into an explicit report instead.
"""

from __future__ import annotations

from ..relational.schema import DatabaseSchema
from .schema_graph import SchemaGraph

__all__ = ["validate_graph", "GraphSchemaMismatch"]


class GraphSchemaMismatch(ValueError):
    """The schema graph disagrees with the relational schema."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__(
            f"{len(problems)} mismatch(es); first: {problems[0]}"
        )


def validate_graph(graph: SchemaGraph, schema: DatabaseSchema) -> list[str]:
    """Return a list of human-readable mismatches (empty = consistent).

    Checks, in order:

    * every graph relation exists in the schema;
    * every graph attribute exists on its relation;
    * every schema attribute has a projection edge (a *warning*-grade
      problem: the attribute can never appear in an answer);
    * join edges reference existing attributes of matching data types;
    * every foreign key of the schema is covered by at least one join
      edge direction (otherwise précis answers can never traverse it).
    """
    return [problem for __, problem in _findings(graph, schema)]


def _findings(graph: SchemaGraph, schema: DatabaseSchema):
    """Yield each of :func:`validate_graph`'s mismatches, in its order,
    as ``(fatal, problem)``: fatal when the schema lacks a graph
    relation, a graph attribute or a join attribute, which fails any ask
    that reaches it."""
    for relation in graph.relations:
        if not schema.has_relation(relation):
            yield True, f"graph relation {relation} not in schema"
            continue
        rs = schema.relation(relation)
        for attribute in graph.attributes_of(relation):
            if not rs.has_column(attribute):
                yield True, (
                    f"graph attribute {relation}.{attribute} not in schema"
                )
        for column in rs.attribute_names:
            if column not in graph.attributes_of(relation):
                yield False, (
                    f"schema attribute {relation}.{column} has no "
                    f"projection edge (can never appear in an answer)"
                )
    for relation in schema.relation_names:
        if not graph.has_relation(relation):
            yield False, (
                f"schema relation {relation} missing from graph "
                f"(unreachable by any précis)"
            )
    for edge in graph.all_join_edges():
        for relation, attribute, side in (
            (edge.source, edge.source_attribute, "source"),
            (edge.target, edge.target_attribute, "target"),
        ):
            if not schema.has_relation(relation) or not schema.relation(
                relation
            ).has_column(attribute):
                yield True, (
                    f"join edge {edge.source}→{edge.target}: {side} "
                    f"attribute {relation}.{attribute} not in schema"
                )
                break
        else:
            src_type = schema.relation(edge.source).column(
                edge.source_attribute
            ).dtype
            dst_type = schema.relation(edge.target).column(
                edge.target_attribute
            ).dtype
            if src_type != dst_type:
                yield False, (
                    f"join edge {edge.source}.{edge.source_attribute} "
                    f"({src_type.name}) → {edge.target}."
                    f"{edge.target_attribute} ({dst_type.name}): "
                    f"type mismatch"
                )
    for fk in schema.foreign_keys:
        if not graph.has_relation(fk.source) or not graph.has_relation(
            fk.target
        ):
            continue  # already reported above
        if not (
            graph.has_join(fk.source, fk.target)
            or graph.has_join(fk.target, fk.source)
        ):
            yield False, (
                f"foreign key {fk} has no join edge in either direction"
            )


def check_graph(graph: SchemaGraph, schema: DatabaseSchema) -> None:
    """Raise :class:`GraphSchemaMismatch` naming each graph relation,
    graph attribute or join attribute the schema lacks; the
    warning-grade findings of :func:`validate_graph` pass silently.
    ``repro`` checks every loaded ``_graph.json`` with it."""
    problems = [p for fatal, p in _findings(graph, schema) if fatal]
    if problems:
        raise GraphSchemaMismatch(problems)
