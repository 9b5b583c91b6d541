"""Structured provenance for a précis answer — "why is this here?"

Keyword-search engines over databases justify their results by showing
the join tree that connects the keywords (BANKS-style systems); the
précis equivalent is to surface the decisions of §5.1–§5.2: which seed
token pulled a relation into the result schema, which weighted path
admitted each joined relation, which degree constraint stopped schema
expansion, which strategy and driving-value set pulled each tuple
batch, and which cardinality constraint cut generation short.

This module holds the *data model* only — plain, JSON-serializable
dataclasses that import nothing from the core pipeline. The builder that
fills them from a finished answer lives in
:func:`repro.core.explain.build_explanation`, which hands over the
database generator's own batch records rather than copies; the engine
attaches the result as :attr:`repro.core.answer.PrecisAnswer.explanation`
and the CLI renders it under ``--explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = [
    "RelationProvenance",
    "SchemaStop",
    "CacheProvenance",
    "Explanation",
]


@dataclass(frozen=True)
class RelationProvenance:
    """Why one relation entered the result schema ``G'``."""

    relation: str
    #: ``"seed"`` (query tokens matched here) or ``"joined"`` (pulled in
    #: along an admitted projection path)
    kind: str
    #: tokens that matched in this relation (seed relations only)
    tokens: tuple[str, ...] = ()
    #: human-readable admitting path, e.g. ``"MOVIE → GENRE . GENRE"``
    via_path: Optional[str] = None
    #: weight of the admitting path (the best-first priority that won)
    path_weight: Optional[float] = None
    #: the join edge that carried the relation in, e.g.
    #: ``"MOVIE.ID → GENRE.MID"``
    via_edge: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "kind": self.kind,
            "tokens": list(self.tokens),
            "via_path": self.via_path,
            "path_weight": self.path_weight,
            "via_edge": self.via_edge,
        }


@dataclass(frozen=True)
class SchemaStop:
    """How the Figure 3 traversal ended.

    ``kind`` is ``"degree"`` when a terminal degree-constraint failure
    cut the queue (the paper's stopping rule), ``"exhausted"`` when
    the queue simply drained — every reachable path was considered — or
    ``"deadline"`` when an expired request deadline
    (:mod:`repro.core.deadline`) cut the queue exactly as a terminal
    constraint failure would have.
    """

    kind: str
    #: description of the constraint that stopped expansion (the failing
    #: part, for composites); None when the queue drained
    constraint: Optional[str] = None
    #: the first rejected path (the best candidate that did not make it)
    rejected_path: Optional[str] = None
    rejected_weight: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "constraint": self.constraint,
            "rejected_path": self.rejected_path,
            "rejected_weight": self.rejected_weight,
        }


@dataclass(frozen=True)
class CacheProvenance:
    """Which cache layers served (or could have served) this answer."""

    #: ``"hit"`` / ``"miss"`` / ``"off"`` / ``"uncacheable"``
    plan: str = "off"
    #: ``"miss"`` / ``"off"`` / ``"uncacheable"`` — an answer served
    #: *from* the cache keeps the explanation of the run that built it
    answer: str = "off"

    def to_dict(self) -> dict:
        return {"plan": self.plan, "answer": self.answer}


@dataclass
class Explanation:
    """The full provenance record of one précis answer."""

    query: str
    degree: str
    cardinality: str
    relations: list[RelationProvenance] = field(default_factory=list)
    schema_stop: Optional[SchemaStop] = None
    #: the tuple batches in deposit order: the database generator's own
    #: records (:class:`repro.core.database_generator.TupleBatch`), read
    #: here through ``kind``, ``relation``, ``via_edge``, ``strategy``,
    #: ``driving_values``, ``tuples_fetched``, ``tuples_new``, ``budget``
    #: and ``to_dict()``
    batches: list = field(default_factory=list)
    #: edges of ``G'`` that never executed (no driving values or budget)
    skipped_edges: list[str] = field(default_factory=list)
    stopped_by_cardinality: bool = False
    cache: CacheProvenance = field(default_factory=CacheProvenance)
    #: first pipeline stage a request deadline tripped at (``"match"`` /
    #: ``"schema"`` / ``"tuples"`` / ``"translate"``); None when the
    #: answer ran to completion. Mirrors
    #: :attr:`repro.core.answer.PrecisAnswer.degraded_stage`.
    deadline_stage: Optional[str] = None
    #: trace id of the request that produced this answer
    #: (:mod:`repro.obs.context`); None outside a traced request. Links
    #: the provenance record to the request's span tree in the trace
    #: buffer and its exemplar on the latency histograms.
    trace_id: Optional[str] = None

    # ------------------------------------------------------------- queries

    def relation(self, name: str) -> Optional[RelationProvenance]:
        for entry in self.relations:
            if entry.relation == name:
                return entry
        return None

    def bounding_constraints(self) -> list[str]:
        """The constraints that actually bit on this query: the degree
        constraint if it stopped schema expansion, the cardinality
        constraint if it stopped tuple generation or capped a batch."""
        out = []
        if self.schema_stop is not None and self.schema_stop.kind == "degree":
            out.append(f"degree: {self.schema_stop.constraint}")
        if self.stopped_by_cardinality or any(
            batch.budget is not None
            and batch.tuples_fetched >= batch.budget > 0
            for batch in self.batches
        ):
            out.append(f"cardinality: {self.cardinality}")
        if self.deadline_stage is not None:
            out.append(f"deadline: expired during {self.deadline_stage}")
        return out

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "degree": self.degree,
            "cardinality": self.cardinality,
            "relations": [entry.to_dict() for entry in self.relations],
            "schema_stop": (
                self.schema_stop.to_dict()
                if self.schema_stop is not None
                else None
            ),
            "batches": [batch.to_dict() for batch in self.batches],
            "skipped_edges": list(self.skipped_edges),
            "stopped_by_cardinality": self.stopped_by_cardinality,
            "deadline_stage": self.deadline_stage,
            "trace_id": self.trace_id,
            "bounding_constraints": self.bounding_constraints(),
            "cache": self.cache.to_dict(),
        }

    # ------------------------------------------------------------- display

    def render(self) -> str:
        """The multi-line ``--explain`` view."""
        lines = [f"why-précis for {self.query!r}"]
        if self.trace_id is not None:
            lines.append(f"trace: {self.trace_id}")
        lines.append(f"constraints: degree = {self.degree}; "
                     f"cardinality = {self.cardinality}")
        lines.append("relations:")
        for entry in self.relations:
            if entry.kind == "seed":
                tokens = ", ".join(repr(t) for t in entry.tokens) or "(seeded)"
                lines.append(
                    f"  {entry.relation}: seed — query token(s) {tokens} "
                    f"matched here"
                )
            else:
                weight = (
                    f"{entry.path_weight:g}"
                    if entry.path_weight is not None
                    else "?"
                )
                lines.append(
                    f"  {entry.relation}: joined via {entry.via_edge} "
                    f"(admitting path {entry.via_path}, w={weight})"
                )
        if self.schema_stop is not None:
            if self.schema_stop.kind == "degree":
                weight = (
                    f"{self.schema_stop.rejected_weight:g}"
                    if self.schema_stop.rejected_weight is not None
                    else "?"
                )
                lines.append(
                    f"schema expansion stopped by {self.schema_stop.constraint} "
                    f"at path {self.schema_stop.rejected_path} (w={weight})"
                )
            elif self.schema_stop.kind == "deadline":
                lines.append(
                    "schema expansion stopped by the request deadline "
                    "(partial schema)"
                )
            else:
                lines.append(
                    "schema expansion exhausted the graph "
                    "(no constraint rejected a path)"
                )
        lines.append("tuple batches:")
        for batch in self.batches:
            budget = "∞" if batch.budget is None else str(batch.budget)
            if batch.kind == "seed":
                lines.append(
                    f"  seed {batch.relation}: {batch.tuples_new} tuple(s) "
                    f"from {batch.driving_values} index match(es), "
                    f"budget {budget}"
                )
            else:
                lines.append(
                    f"  join {batch.via_edge} [{batch.strategy}]: "
                    f"{batch.driving_values} driving value(s) → "
                    f"{batch.tuples_new} new tuple(s), budget {budget}"
                )
        for edge in self.skipped_edges:
            lines.append(f"  skip {edge} (no driving values or no budget)")
        if self.stopped_by_cardinality:
            lines.append(
                f"generation stopped: cardinality constraint "
                f"({self.cardinality}) exhausted"
            )
        if self.deadline_stage is not None:
            lines.append(
                f"degraded: deadline expired during {self.deadline_stage} — "
                f"the answer is a valid partial précis"
            )
        bounding = self.bounding_constraints()
        if bounding:
            lines.append("bounded by: " + "; ".join(bounding))
        else:
            lines.append("bounded by: nothing — the answer is complete")
        lines.append(
            f"cache: plan {self.cache.plan}, answer {self.cache.answer}"
        )
        return "\n".join(lines)
