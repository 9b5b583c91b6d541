"""Graphviz DOT export for schema graphs and result schemas.

The paper's §7 envisions "a graphical tool intended for use by a domain
expert" for inspecting and tuning the weighted schema graph; DOT output
is the text-based foundation for that: render with ``dot -Tsvg``.

Relation nodes are boxes, attribute nodes are ellipses hanging off
them with their projection weight on the edge; join edges are directed
arrows labelled ``attr (w)``. Result schemas highlight the token
relations and show in-degrees.
"""

from __future__ import annotations

from ..core.result_schema import ResultSchema
from .schema_graph import SchemaGraph

__all__ = ["graph_to_dot", "result_schema_to_dot"]


def _quote(text: str) -> str:
    return '"' + text.replace('"', r"\"") + '"'


def graph_to_dot(graph: SchemaGraph, name: str = "schema_graph") -> str:
    """Render a weighted schema graph as DOT."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for relation in graph.relations:
        lines.append(
            f"  {_quote(relation)} [shape=box, style=bold];"
        )
        for edge in graph.projection_edges_of(relation):
            node = f"{relation}.{edge.attribute}"
            lines.append(
                f"  {_quote(node)} [shape=ellipse, "
                f"label={_quote(edge.attribute)}];"
            )
            lines.append(
                f"  {_quote(node)} -> {_quote(relation)} "
                f"[label={_quote(f'{edge.weight:g}')}, style=dashed, "
                f"arrowhead=none];"
            )
    for edge in graph.all_join_edges():
        label = f"{edge.source_attribute} ({edge.weight:g})"
        lines.append(
            f"  {_quote(edge.source)} -> {_quote(edge.target)} "
            f"[label={_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines)


def result_schema_to_dot(
    schema: ResultSchema, name: str = "result_schema"
) -> str:
    """Render a result schema ``G'`` as DOT (token relations shaded)."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for relation in schema.relations:
        attrs = ", ".join(schema.attributes_of(relation)) or "—"
        label = f"{relation}|{attrs}|in-degree {schema.in_degree(relation)}"
        style = (
            "filled, bold" if relation in schema.origin_relations else "bold"
        )
        lines.append(
            f"  {_quote(relation)} [shape=record, style={_quote(style)}, "
            f"label={_quote(label)}];"
        )
    for edge in schema.join_edges:
        label = (
            f"{edge.source_attribute}→{edge.target_attribute} "
            f"({edge.weight:g})"
        )
        lines.append(
            f"  {_quote(edge.source)} -> {_quote(edge.target)} "
            f"[label={_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines)
