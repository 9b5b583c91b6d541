"""The Result Database Translator (paper §5.3).

Renders the relational précis answer to a natural-language synthesis:

    "The translation is realized separately for every occurrence of a
    token. For each occurrence, the analysis of the query result graph
    starts from the relation that contains the input token. The labels
    of the projection edges that participate in the result graph are
    evaluated first; the label of the heading attribute comprises the
    first part of the sentence. After having constructed the clause for
    the relation that contains the input token, we compose additional
    clauses that combine information from more than one relation by
    using foreign key relationships. Each of these clauses has as
    subject the heading attribute of the relation that has the primary
    key. The procedure ends when the traversal of the database graph is
    complete."

Concretely, for each seed tuple of each token occurrence we emit:

1. an *entity clause*: the concatenated projection-edge labels of the
   token relation (heading attribute first), evaluated on the tuple;
2. one *join clause* per (result-schema join edge, reached tuple) pair,
   evaluated in a scope holding the source tuple's attributes as scalars
   (plus scalars inherited along the traversal — this serves relations
   without a heading attribute, whose join labels speak about "the
   previous relation") and the joined target tuples' attributes as
   lists;

then recurse into the target tuples along the remaining edges.
"""

from __future__ import annotations

from typing import Any

from ..graph.schema_graph import JoinEdge
from ..obs import NULL_TRACER, Tracer
from ..relational.row import Row
from .labels import TranslationSpec
from .template_lang import Template

__all__ = ["Translator"]


class Translator:
    """Turns :class:`~repro.core.answer.PrecisAnswer` objects into prose."""

    def __init__(self, spec: TranslationSpec):
        self.spec = spec

    # ------------------------------------------------------------- top level

    def translate(self, answer, tracer: Tracer = NULL_TRACER) -> str:
        """One paragraph per token occurrence per seed tuple, in order.

        *tracer* (``repro.obs``, no-op by default) counts
        ``paragraphs_emitted`` in the caller's current span.
        """
        walk = _Walk(answer, self.spec)
        paragraphs: list[str] = []
        for match in answer.matches:
            for occurrence in match.occurrences:
                relation = occurrence.relation
                if relation not in answer.database:
                    continue
                tid_map = answer.report.tid_maps.get(relation, {})
                for source_tid in sorted(occurrence.tids):
                    answer_tid = tid_map.get(source_tid)
                    if answer_tid is None:
                        continue  # excluded by the cardinality constraint
                    text = self._translate_seed(walk, relation, answer_tid)
                    if text:
                        paragraphs.append(text)
        tracer.count("paragraphs_emitted", len(paragraphs))
        return "\n\n".join(paragraphs)

    # ------------------------------------------------------------- traversal

    def _translate_seed(self, walk: "_Walk", relation: str, tid: int) -> str:
        row = walk.rows(relation)[tid]
        clauses: list[str] = []
        entity = self._entity_clause(walk, relation, row)
        if entity:
            clauses.append(entity)
        self._join_clauses(
            walk,
            relation,
            [row],
            inherited={},
            visited=frozenset({relation}),
            clauses=clauses,
        )
        return " ".join(clause.strip() for clause in clauses if clause.strip())

    def _entity_clause(self, walk: "_Walk", relation: str, row: Row) -> str:
        """Projection labels of *relation*, heading attribute first."""
        scope = walk.scope(relation, row)
        parts = []
        for attribute, template in walk.projection_labels(relation):
            if row.get(attribute) is None:
                continue  # a précis may be incomplete; skip silently
            parts.append(template.render_scope(scope, self.spec.macros))
        return "".join(parts)

    def _join_clauses(
        self,
        walk: "_Walk",
        relation: str,
        rows: list[Row],
        inherited: dict[str, Any],
        visited: frozenset[str],
        clauses: list[str],
    ) -> None:
        for edge in walk.answer.result_schema.edges_from(relation):
            if edge.target in visited:
                continue
            template = self.spec.join_label(edge.source, edge.target)
            next_visited = visited | {edge.target}
            for row in rows:
                driving = row.get(edge.source_attribute)
                if driving is None:
                    continue
                targets = walk.matching(edge, driving)
                if not targets:
                    continue
                scope = dict(inherited)
                scope.update(walk.scope(relation, row))
                if template is not None:
                    scope_with_lists = dict(scope)
                    scope_with_lists.update(
                        walk.list_scope(edge.target, targets)
                    )
                    clause = template.render_scope(
                        scope_with_lists, self.spec.macros
                    ).strip()
                    if clause:
                        clauses.append(clause)
                # recurse: clauses about relations further out are
                # composed per reached tuple, subject = their heading
                self._join_clauses(
                    walk,
                    edge.target,
                    targets,
                    inherited=scope,
                    visited=next_visited,
                    clauses=clauses,
                )

class _Walk:
    """What one translation reads of its answer, each piece computed on
    first use and dropped with the call (a translator may serve several
    threads at once): each relation's rows by answer tid from one scan
    in tid order, the rows grouped by the value of a join's target
    attribute, each relation's upper-cased attribute names (the names
    of its template scopes) and each relation's projection labels,
    heading attribute first."""

    def __init__(self, answer, spec: TranslationSpec):
        self.answer = answer
        self.spec = spec
        self._rows: dict[str, dict[int, Row]] = {}
        self._groups: dict[tuple[str, str], dict[Any, list[Row]]] = {}
        self._names: dict[str, tuple[str, ...]] = {}
        self._labels: dict[str, list[tuple[str, Template]]] = {}

    def rows(self, relation: str) -> dict[int, Row]:
        rows = self._rows.get(relation)
        if rows is None:
            scan = self.answer.database.relation(relation).scan()
            rows = self._rows[relation] = {row.tid: row for row in scan}
        return rows

    def matching(self, edge: JoinEdge, value: Any) -> list[Row]:
        """Rows of the edge's target whose join attribute equals
        *value*, in tid order."""
        key = (edge.target, edge.target_attribute)
        groups = self._groups.get(key)
        if groups is None:
            groups = self._groups[key] = {}
            relation = self.answer.database.relation(edge.target)
            pos = relation.schema.position(edge.target_attribute)
            for row in self.rows(edge.target).values():
                groups.setdefault(row.values[pos], []).append(row)
        return groups.get(value, [])

    def _scope_names(self, relation: str) -> tuple[str, ...]:
        names = self._names.get(relation)
        if names is None:
            schema = self.answer.database.relation(relation).schema
            names = self._names[relation] = tuple(
                [name.upper() for name in schema.attribute_names]
            )
        return names

    def scope(self, relation: str, row: Row) -> dict[str, Any]:
        """A row of *relation* as a template scope: each attribute, by
        its upper-cased name, bound to the row's value."""
        return dict(zip(self._scope_names(relation), row.values))

    def list_scope(self, relation: str, rows: list[Row]) -> dict[str, Any]:
        """Rows of *relation* as a template scope: each attribute, by
        its upper-cased name, bound to the list of the rows' values."""
        return {
            name: [row.values[pos] for row in rows]
            for pos, name in enumerate(self._scope_names(relation))
        }

    def projection_labels(self, relation: str) -> list[tuple[str, Template]]:
        """(attribute, label) of each labelled projection of *relation*,
        heading attribute first."""
        labels = self._labels.get(relation)
        if labels is None:
            attributes = list(
                self.answer.result_schema.attributes_of(relation)
            )
            heading = self.spec.heading_of(relation)
            if heading in attributes:
                attributes.remove(heading)
                attributes.insert(0, heading)
            labels = self._labels[relation] = []
            for attribute in attributes:
                template = self.spec.projection_label(relation, attribute)
                if template is not None:
                    labels.append((attribute, template))
        return labels
