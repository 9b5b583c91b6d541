"""Explain facilities: the SQL the generators conceptually submit.

The paper describes every step of the Result Database Generator as an
SQL query sent to the DBMS ("the creation of the result database is
performed by submitting to the database a series of selection queries
without joins", §5.2/§6). This module reconstructs that query script
from a :class:`~repro.core.answer.PrecisAnswer` — useful for debugging,
for teaching, and for porting the answer onto a real SQL engine — plus
a human-readable execution plan.

It also hosts :func:`build_explanation`, the builder that distils one
finished answer into the structured provenance record of
:mod:`repro.obs.explain` ("why is this relation/tuple in my précis,
and which constraint bounded it?") — the engine attaches its output as
:attr:`~repro.core.answer.PrecisAnswer.explanation`.
"""

from __future__ import annotations

from ..core.answer import PrecisAnswer
from ..core.database_generator import (
    STRATEGY_ROUND_ROBIN,
    GeneratorReport,
    edge_text,
)
from ..core.result_schema import ResultSchema
from ..obs import Span, format_span_table
from ..obs.explain import CacheProvenance, Explanation, RelationProvenance
from ..relational.ddl import create_schema_sql
from .constraints import CardinalityConstraint, DegreeConstraint

__all__ = [
    "emitted_queries",
    "render_plan",
    "render_stats",
    "answer_ddl",
    "build_explanation",
    "render_explanation",
]


def _projection_list(schema: ResultSchema, relation: str) -> str:
    attrs = schema.retrieval_attributes(relation)
    return ", ".join(attrs) if attrs else "*"


def emitted_queries(answer: PrecisAnswer) -> list[str]:
    """The SQL script equivalent to the generator run, in execution

    order: one tid-list selection per seeded relation (the paper's
    ``σ_Tids(R)[π(R)]``; rendered with a ROWID placeholder), then one
    IN-list selection per executed join edge (``σ_Ids(Rj)[π(Rj)]``) —
    RoundRobin edges render as one parameterized query *per driving
    tuple*, which is exactly why Figure 9 finds them slower."""
    schema = answer.result_schema
    queries: list[str] = []
    for batch in answer.report.batches:
        edge = batch.edge
        projection = _projection_list(schema, batch.relation)
        if edge is None:
            queries.append(
                f"SELECT {projection} FROM {batch.relation} WHERE ROWID IN "
                f"(/* {batch.tuples_new} matching tuple ids from the "
                f"inverted index */)"
            )
        elif batch.strategy == STRATEGY_ROUND_ROBIN:
            queries.append(
                f"-- round-robin: one scan per driving tuple "
                f"({batch.driving_values} scans)\n"
                f"SELECT {projection} FROM {edge.target} "
                f"WHERE {edge.target_attribute} = ?"
            )
        else:
            queries.append(
                f"SELECT {projection} FROM {edge.target} "
                f"WHERE {edge.target_attribute} IN "
                f"(/* {batch.driving_values} values of "
                f"{edge.source}.{edge.source_attribute} */)"
            )
    return queries


def render_plan(answer: PrecisAnswer) -> str:
    """A multi-line, human-readable account of what the generators did."""
    schema = answer.result_schema
    report: GeneratorReport = answer.report
    lines = [f"précis plan for {answer.query.text!r}"]
    lines.append("tokens:")
    for match in answer.matches:
        if match.found:
            places = ", ".join(
                f"{occ.relation}.{occ.attribute} ({len(occ.tids)} tuples)"
                for occ in match.occurrences
            )
            lines.append(f"  {match.token!r} -> {places}")
        else:
            lines.append(f"  {match.token!r} -> NOT FOUND")
    lines.append("result schema:")
    for relation in schema.relations:
        visible = ", ".join(schema.attributes_of(relation)) or "(join-only)"
        lines.append(
            f"  {relation}[{visible}] in-degree={schema.in_degree(relation)}"
        )
    lines.append("execution:")
    for batch in report.batches:
        if batch.edge is None:
            lines.append(
                f"  seed {batch.relation}: {batch.tuples_new} tuple(s)"
            )
        else:
            lines.append(
                f"  join {batch.via_edge} "
                f"(w={batch.edge_weight:g}, {batch.strategy}): "
                f"{batch.driving_values} driving value(s), "
                f"{batch.tuples_new} new tuple(s)"
            )
    for edge in report.skipped_edges:
        lines.append(
            f"  skip {edge.source} → {edge.target} "
            f"(empty driving set or no budget)"
        )
    if report.stopped_by_cardinality:
        lines.append("  stopped: cardinality constraint exhausted")
    lines.append(
        f"answer: {answer.total_tuples()} tuples in "
        f"{len(schema.relations)} relations; retrieval cost "
        f"{answer.cost.tuple_reads} tuple reads + "
        f"{answer.cost.index_lookups} index probes"
    )
    return "\n".join(lines)


def render_stats(source: PrecisAnswer | Span) -> str:
    """The per-stage timing + counter table of a traced run.

    Accepts either a root :class:`~repro.obs.Span` or a
    :class:`~repro.core.answer.PrecisAnswer` produced with tracing
    enabled (``PrecisEngine(..., tracer=Tracer(...))`` or a per-call
    ``tracer=``); raises ``ValueError`` for an untraced answer, since an
    untraced run records nothing to render.
    """
    root = source.stats if isinstance(source, PrecisAnswer) else source
    if root is None:
        raise ValueError(
            "answer carries no stats — run the engine with tracing enabled "
            "(PrecisEngine(..., tracer=repro.obs.Tracer()) or ask(..., "
            "tracer=...))"
        )
    return format_span_table(root)


def build_explanation(
    answer: PrecisAnswer,
    degree: DegreeConstraint,
    cardinality: CardinalityConstraint,
    plan_cache: str = "off",
    answer_cache: str = "off",
    deadline_stage: "str | None" = None,
    trace_id: "str | None" = None,
) -> Explanation:
    """Distil one finished answer into its provenance record.

    *plan_cache* / *answer_cache* are the cache outcomes of the run
    (``"hit"`` / ``"miss"`` / ``"off"`` / ``"uncacheable"``) — the
    engine knows them; standalone callers may leave the defaults.
    *deadline_stage* is the pipeline stage a request deadline tripped
    at (None for an answer that ran to completion); it surfaces in
    :meth:`~repro.obs.explain.Explanation.bounding_constraints` next to
    the degree and cardinality bounds. *trace_id* stamps the record
    with the serving-layer request that produced it
    (:mod:`repro.obs.context`) so ``--explain`` output, slow-query
    lines and histogram exemplars all share one correlation key.

    The record answers, per relation, *why it is in the result schema*
    (seed token match vs. the weighted path that admitted it), names
    the degree constraint that stopped schema expansion (riding on
    :attr:`~repro.core.result_schema.ResultSchema.stop`, so plan-cache
    hits keep the original reason), and per tuple batch, which
    strategy and driving set pulled it under which cardinality budget.
    """
    schema = answer.result_schema
    report: GeneratorReport = answer.report

    tokens_by_relation: dict[str, list[str]] = {}
    for match in answer.matches:
        for occurrence in match.occurrences:
            tokens_by_relation.setdefault(occurrence.relation, [])
            if match.token not in tokens_by_relation[occurrence.relation]:
                tokens_by_relation[occurrence.relation].append(match.token)

    relations: list[RelationProvenance] = []
    for relation in schema.relations:
        if relation in schema.origin_relations:
            tokens = tuple(tokens_by_relation.get(relation, ()))
            relations.append(RelationProvenance(relation, "seed", tokens))
            continue
        path = schema.admitting_path(relation)
        via = next(edge for edge in path.joins if edge.target == relation)
        relations.append(
            RelationProvenance(
                relation=relation,
                kind="joined",
                via_path=repr(path),
                path_weight=path.weight,
                via_edge=edge_text(via),
            )
        )

    return Explanation(
        query=answer.query.text,
        degree=degree.describe(),
        cardinality=cardinality.describe(),
        relations=relations,
        schema_stop=schema.stop,
        batches=report.batches,
        skipped_edges=[edge_text(e) for e in report.skipped_edges],
        stopped_by_cardinality=report.stopped_by_cardinality,
        cache=CacheProvenance(plan=plan_cache, answer=answer_cache),
        deadline_stage=deadline_stage,
        trace_id=trace_id,
    )


def render_explanation(source: PrecisAnswer | Explanation) -> str:
    """The ``--explain`` provenance view.

    Accepts an :class:`~repro.obs.explain.Explanation` or an answer
    produced by :meth:`~repro.core.engine.PrecisEngine.ask` (which
    always carries one); raises ``ValueError`` for an answer built
    without the engine (e.g. straight from the generators).
    """
    explanation = (
        source.explanation if isinstance(source, PrecisAnswer) else source
    )
    if explanation is None:
        raise ValueError(
            "answer carries no explanation — ask through PrecisEngine.ask "
            "(or build one with repro.core.explain.build_explanation)"
        )
    return explanation.render()


def answer_ddl(answer: PrecisAnswer) -> str:
    """``CREATE TABLE`` script for the answer's own schema — the "whole

    new database with its own schema and constraints" made explicit."""
    return create_schema_sql(answer.database.schema)
