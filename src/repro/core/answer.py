"""The précis answer object.

A :class:`PrecisAnswer` packages everything one query run produced: the
result schema ``D'`` (a :class:`~repro.core.result_schema.ResultSchema`),
the result database (a fully formed
:class:`~repro.relational.database.Database` — the paper's headline
claim: "queries do not generate individual relations but entire
multi-relation databases"), the execution report, the per-token match
information, the cost delta charged to the source database, and — when a
translator is configured — the natural-language narrative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from ..obs.explain import Explanation
from ..obs.tracer import Span
from ..relational.cost import CostSnapshot
from ..relational.database import Database
from ..relational.datatypes import render
from ..text.matching import TokenMatch
from .database_generator import GeneratorReport
from .query import PrecisQuery
from .result_schema import ResultSchema

__all__ = ["PrecisAnswer"]


@dataclass
class PrecisAnswer:
    """Everything produced in answer to one précis query."""

    query: PrecisQuery
    result_schema: ResultSchema
    database: Database
    report: GeneratorReport
    matches: list[TokenMatch] = field(default_factory=list)
    narrative: Optional[str] = None
    cost: CostSnapshot = field(default_factory=CostSnapshot)
    #: the closed root span of the traced ask that returned this answer
    #: (``repro.obs``) — the record itself, not a copy: ``find``/
    #: ``walk``/``total_counters`` read it. None unless the ask ran with
    #: tracing enabled. Deliberately excluded from :meth:`to_dict` so
    #: traced and untraced answers serialize identically — export via
    #: ``stats.to_dict()``.
    stats: Optional[Span] = None
    #: structured provenance (``repro.obs.explain``): why each relation
    #: and tuple batch is in this précis and which constraint bounded
    #: it. Attached by :meth:`~repro.core.engine.PrecisEngine.ask`; None
    #: for answers built straight from the generators. Excluded from
    #: :meth:`to_dict` (export via ``explanation.to_dict()``), rendered
    #: by the CLI's ``--explain``.
    explanation: Optional[Explanation] = None
    #: True when a deadline expired mid-ask (``repro.core.deadline``):
    #: every field is still well-formed, but the answer is *partial* —
    #: traversal/generation stopped early exactly as a degree or
    #: cardinality constraint would have stopped it.
    degraded: bool = False
    #: first pipeline stage the deadline tripped at (``"match"`` /
    #: ``"schema"`` / ``"tuples"`` / ``"translate"``); None when not
    #: degraded. Mirrored into EXPLAIN provenance.
    degraded_stage: Optional[str] = None

    def __post_init__(self):
        # the to_json() bytes once computed, in one slot that shallow
        # copies share: a traced cache hit is such a copy, differing
        # only in ``stats``, which the encoding leaves out
        self._encoded: list[Optional[bytes]] = [None]

    # ------------------------------------------------------------- queries

    @property
    def found(self) -> bool:
        """True iff at least one token matched the database."""
        return any(match.found for match in self.matches)

    @property
    def unmatched_tokens(self) -> tuple[str, ...]:
        return tuple(m.token for m in self.matches if not m.found)

    def total_tuples(self) -> int:
        return self.database.total_tuples()

    def cardinalities(self) -> dict[str, int]:
        return self.database.cardinalities()

    def relevance(self) -> float:
        """An aggregate relevance score for ranking sibling answers

        (e.g. the per-homonym answers of
        :meth:`~repro.core.engine.PrecisEngine.ask_per_occurrence`):
        seed tuples count 1 each; every joined-in tuple counts the
        weight of the edge that brought it. Higher = more content in
        more strongly connected relations.
        """
        score = float(sum(self.report.seed_counts.values()))
        for execution in self.report.executions:
            score += execution.tuples_new * execution.edge.weight
        return score

    def dangling_tuples(self) -> int:
        """Number of referential gaps in the answer — tuples whose join

        attribute points at a partner the cardinality budget excluded.
        NaïveQ on 1-to-n joins produces these; RoundRobin largely avoids
        them (paper §5.2). Zero means the answer is a fully consistent
        sub-database."""
        return len(self.database.integrity_violations())

    # ------------------------------------------------------------- export

    def to_dict(self) -> dict:
        """A JSON-compatible snapshot of the whole answer — for HTTP

        APIs and archival. Values render through the engine's text
        rendering (dates ISO, NULL → None)."""
        return {
            "query": self.query.text,
            "found": self.found,
            "degraded": self.degraded,
            "unmatched_tokens": list(self.unmatched_tokens),
            "tokens": [
                {
                    "token": match.token,
                    "occurrences": [
                        {
                            "relation": occ.relation,
                            "attribute": occ.attribute,
                            "tuples": len(occ.tids),
                        }
                        for occ in match.occurrences
                    ],
                }
                for match in self.matches
            ],
            "schema": {
                relation: list(self.result_schema.attributes_of(relation))
                for relation in self.result_schema.relations
            },
            "joins": [
                {
                    "source": edge.source,
                    "target": edge.target,
                    "on": [edge.source_attribute, edge.target_attribute],
                    "weight": edge.weight,
                }
                for edge in self.result_schema.join_edges
            ],
            "relations": {
                relation: self._rendered_rows(relation)
                for relation in self.result_schema.relations
            },
            "narrative": self.narrative,
            "cost": {
                "tuple_reads": self.cost.tuple_reads,
                "index_lookups": self.cost.index_lookups,
                "scan_steps": self.cost.scan_steps,
            },
        }

    def to_json(self) -> bytes:
        """:meth:`to_dict` as sorted-key UTF-8 JSON — the body of a
        served answer.

        Encoded on the first call and kept, so every caller holding
        this answer (cache hits, coalesced waiters) shares one
        encoding, and so does a shallow copy (``copy.copy``). An answer
        is complete when :meth:`~repro.core.engine.PrecisEngine.ask`
        returns it and is never changed afterwards."""
        slot = self._encoded
        if slot[0] is None:
            slot[0] = json.dumps(self.to_dict(), sort_keys=True).encode(
                "utf-8"
            )
        return slot[0]

    def _rendered_rows(self, relation: str) -> list[dict]:
        """:meth:`rows_of` with every value rendered, read straight from
        the stored tuples (an export, outside the cost model)."""
        visible = self.result_schema.attributes_of(relation)
        if not visible:
            return []
        rel = self.database.relation(relation)
        positions = rel.schema.positions(visible)
        return [
            {
                name: None if stored[p] is None else render(stored[p])
                for name, p in zip(visible, positions)
            }
            for __, stored in rel.store.scan()
        ]

    # ------------------------------------------------------------- display

    def rows_of(self, relation: str) -> list[dict]:
        """Visible rows of one answer relation (join-plumbing attributes

        that are not part of the result schema are hidden, per §5.2)."""
        visible = self.result_schema.attributes_of(relation)
        rel = self.database.relation(relation)
        if not visible:
            return []
        return [row.as_dict() for row in rel.scan(visible)]

    def describe(self) -> str:
        """Multi-line human-readable dump of the whole answer."""
        lines = [f"Query: {self.query.text}"]
        if self.degraded:
            lines.append(
                f"  (degraded: deadline expired during "
                f"{self.degraded_stage or 'the run'})"
            )
        if not self.found:
            lines.append("  (no token matched the database)")
            return "\n".join(lines)
        for match in self.matches:
            where = (
                ", ".join(
                    f"{occ.relation}.{occ.attribute}({len(occ.tids)})"
                    for occ in match.occurrences
                )
                or "not found"
            )
            lines.append(f"  token {match.token!r}: {where}")
        lines.append("Result schema:")
        for text in self.result_schema.describe().splitlines():
            lines.append(f"  {text}")
        lines.append("Result database:")
        for relation in self.result_schema.relations:
            rows = self.rows_of(relation)
            lines.append(f"  {relation} ({len(rows)} rows)")
            for row in rows:
                values = ", ".join(
                    f"{k}={render(v)}" for k, v in row.items()
                )
                lines.append(f"    {values}")
        if self.narrative:
            lines.append("Narrative:")
            for text in self.narrative.splitlines():
                lines.append(f"  {text}")
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"PrecisAnswer({self.query.text!r}, "
            f"{len(self.result_schema.relations)} relations, "
            f"{self.total_tuples()} tuples)"
        )
