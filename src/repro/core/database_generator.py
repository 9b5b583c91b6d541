"""The Result Database Generator — Figure 5 of the paper.

Populates the result schema ``D'`` produced by the schema generator:

1. seed every token relation with (a cardinality-bounded subset of) the
   tuples containing the query tokens, via ``σ_Tids(R)[π(R)]``;
2. walk the join edges of ``G'`` in decreasing weight, executing each as
   an IN-list selection on the destination driven by the join-attribute
   values already collected in the source — *never* an actual join query;
3. postpone joins departing from a relation whose in-degree has not yet
   reached zero, so all arrivals deposit (and deduplicate) their tuples
   before the relation drives further joins;
4. bound every fetch by the cardinality constraint, choosing between the
   paper's two subset strategies:

   * **NaïveQ** — keep an arbitrary prefix of the matching tuples (the
     Oracle-RowNum trick); for 1-to-n joins this risks leaving driving
     tuples without any join partner;
   * **RoundRobin** — open one scan of joining tuples per driving tuple
     and take one tuple per scan per round, spreading the budget evenly.

The generated answer is a real :class:`~repro.relational.database.
Database` whose schema is the projected sub-schema, with foreign keys
declared along the executed join edges — so the dangling-tuple effect of
NaïveQ is directly observable via ``integrity_violations()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from ..graph.schema_graph import JoinEdge
from ..obs import NULL_TRACER, Tracer
from ..relational.database import Database
from ..relational.query import RoundRobinScans
from ..relational.row import Row
from ..relational.schema import DatabaseSchema, ForeignKey
from .constraints import CardinalityConstraint, Unlimited
from .deadline import NO_DEADLINE, Deadline
from .result_schema import ResultSchema
from .value_weights import TupleWeigher

__all__ = [
    "generate_result_database",
    "GeneratorReport",
    "JoinExecution",
    "STRATEGY_NAIVE",
    "STRATEGY_ROUND_ROBIN",
    "STRATEGY_AUTO",
    "JOIN_ORDER_WEIGHT",
    "JOIN_ORDER_FIFO",
]

STRATEGY_NAIVE = "naive"
STRATEGY_ROUND_ROBIN = "round_robin"
STRATEGY_AUTO = "auto"
_STRATEGIES = (STRATEGY_NAIVE, STRATEGY_ROUND_ROBIN, STRATEGY_AUTO)

#: the paper's join ordering: heaviest executable edge first, so
#: "relations in D' that are most related to the query are populated
#: first" and budget exhaustion cuts off only weakly connected parts
JOIN_ORDER_WEIGHT = "weight"
#: ablation alternative: execute edges in result-schema admission order
JOIN_ORDER_FIFO = "fifo"
_JOIN_ORDERS = (JOIN_ORDER_WEIGHT, JOIN_ORDER_FIFO)


@dataclass
class JoinExecution:
    """Record of one executed join edge."""

    edge: JoinEdge
    strategy: str
    driving_values: int
    tuples_fetched: int
    tuples_new: int
    #: cardinality budget in force when the edge executed (None =
    #: unbounded) — EXPLAIN uses this to show which batches were capped
    budget: Optional[int] = None


@dataclass
class GeneratorReport:
    """What the generator did, in order — used by tests and benches."""

    seed_counts: dict[str, int] = field(default_factory=dict)
    executions: list[JoinExecution] = field(default_factory=list)
    skipped_edges: list[JoinEdge] = field(default_factory=list)
    stopped_by_cardinality: bool = False
    #: an expired deadline ended generation early (seeding or the join
    #: walk); the answer built so far is valid but partial
    stopped_by_deadline: bool = False
    #: per seeded relation: inverted-index matches offered (pre-budget)
    seed_matches: dict[str, int] = field(default_factory=dict)
    #: per seeded relation: cardinality budget in force (None = unbounded)
    seed_budgets: dict[str, Optional[int]] = field(default_factory=dict)
    #: per relation: source tuple id -> answer tuple id, for every tuple
    #: that made it into the answer (used by the translator to find the
    #: seed tuples again)
    tid_maps: dict[str, dict[int, int]] = field(default_factory=dict)

    @property
    def joins_executed(self) -> int:
        return len(self.executions)

    def tuples_retrieved(self) -> int:
        return sum(self.seed_counts.values()) + sum(
            ex.tuples_new for ex in self.executions
        )


def _result_database_schema(
    source: Database, result_schema: ResultSchema
) -> DatabaseSchema:
    """Schema of the answer: each relation projected on its retrieval

    attributes, plus the *referential* constraints the sub-database
    inherits. A ``G'`` join edge becomes a foreign key of the answer only
    when the same (source, column) → (target, column) constraint exists
    in the original schema — the reverse direction of a foreign key is a
    join worth following but not a constraint (a DIRECTOR row without
    movies is legal; a CAST row without its MOVIE is not)."""
    relations = []
    for name in result_schema.relations:
        attrs = result_schema.retrieval_attributes(name)
        relations.append(source.relation(name).schema.project(attrs))
    source_fks = {
        (fk.source, fk.column, fk.target, fk.target_column)
        for fk in source.schema.foreign_keys
    }
    fks = [
        ForeignKey(e.source, e.source_attribute, e.target, e.target_attribute)
        for e in result_schema.join_edges()
        if (e.source, e.source_attribute, e.target, e.target_attribute)
        in source_fks
    ]
    return DatabaseSchema(relations, fks)


def _is_to_one(source_db: Database, edge: JoinEdge) -> bool:
    """A join is to-1 when the destination's join attribute is its

    (single-column) primary key — each driving value matches at most one
    tuple."""
    pk = source_db.relation(edge.target).schema.primary_key
    return len(pk) == 1 and pk[0] == edge.target_attribute


#: tids per deadline check inside a bulk fetch — bounds deadline
#: overshoot to one chunk of tuple reads instead of one whole IN-list
_DEADLINE_CHUNK = 512


def _fetch_bounded(
    relation,
    tids,
    attrs,
    budget: Optional[int],
    deadline: Deadline,
) -> tuple[list[Row], bool]:
    """``fetch_many`` in chunks, stopping between chunks once the
    deadline expires. Returns (rows fetched so far, cut-by-deadline)."""
    tid_list = list(tids)
    out: list[Row] = []
    for start in range(0, len(tid_list), _DEADLINE_CHUNK):
        if budget is not None and len(out) >= budget:
            break
        if start and deadline.expired():
            return out, True
        remaining = None if budget is None else budget - len(out)
        out.extend(
            relation.fetch_many(
                tid_list[start : start + _DEADLINE_CHUNK], attrs, remaining
            )
        )
    return out, False


def _fetch_naive(
    relation,
    attribute,
    values,
    attrs,
    exclude: set[int],
    budget: Optional[int],
    weigher: Optional[TupleWeigher] = None,
    deadline: Deadline = NO_DEADLINE,
) -> tuple[list[Row], set[int]]:
    """Returns (new rows, matching tids that were already present)."""
    values = list(values)
    tids: set[int] = set()
    for start in range(0, len(values), _DEADLINE_CHUNK):
        if start and deadline.expired():
            break
        tids |= relation.lookup_in(
            attribute, values[start : start + _DEADLINE_CHUNK]
        )
    matched_existing = tids & exclude
    fresh = [tid for tid in sorted(tids) if tid not in exclude]
    if weigher is None or budget is None or len(fresh) <= budget:
        rows, __ = _fetch_bounded(relation, fresh, attrs, budget, deadline)
        return rows, matched_existing
    # value-weighted selection (§7 extension): score all candidates,
    # keep the heaviest — costs the full fetch, which the meter records
    rows, __ = _fetch_bounded(relation, fresh, attrs, None, deadline)
    rows.sort(key=weigher.sort_key(relation.name))
    return rows[:budget], matched_existing


def _fetch_round_robin(
    relation,
    attribute,
    values,
    attrs,
    exclude: set[int],
    budget: Optional[int],
    weigher: Optional[TupleWeigher] = None,
    deadline: Deadline = NO_DEADLINE,
) -> tuple[list[Row], set[int]]:
    """Returns (new rows, matching tids that were already present).

    Unlike the NaïveQ probe, matched-existing reporting is best-effort:
    only tuples the cursors actually visited before the budget ran out
    are observed (the unvisited tail is unknown by construction)."""
    matched_existing: set[int] = set()
    if weigher is not None:
        # weighted variant: one scan per driving value, each scan
        # ordered heaviest-first, then merged round-robin
        key = weigher.sort_key(relation.name)
        queues: list[list[Row]] = []
        for value in dict.fromkeys(values):
            if queues and deadline.expired():
                break
            relation.meter.charge_scan_step()  # cursor open, as in RR
            matches = relation.fetch_many(
                sorted(relation.lookup(attribute, value)), attrs
            )
            matches.sort(key=key, reverse=True)  # pop() yields best first
            if matches:
                queues.append(matches)
        out: list[Row] = []
        cursor = 0
        while queues:
            if budget is not None and len(out) >= budget:
                break
            if len(out) % _DEADLINE_CHUNK == 0 and out and deadline.expired():
                break
            if cursor >= len(queues):
                cursor = 0
            row = queues[cursor].pop()
            if queues[cursor]:
                cursor += 1
            else:
                del queues[cursor]
            if row.tid in exclude:
                matched_existing.add(row.tid)
            else:
                out.append(row)
        return out, matched_existing
    scans = RoundRobinScans(
        relation,
        attribute,
        values,
        attrs,
        should_stop=deadline.expired,
    )
    out = []
    steps = 0
    while not scans.exhausted():
        if budget is not None and len(out) >= budget:
            break
        steps += 1
        if steps % 64 == 0 and deadline.expired():
            break
        row = scans.next_tuple()
        if row is None:
            continue
        if row.tid in exclude:
            matched_existing.add(row.tid)
        else:
            out.append(row)
    return out, matched_existing


def generate_result_database(
    source: Database,
    result_schema: ResultSchema,
    seed_tids: Mapping[str, Iterable[int]],
    cardinality: Optional[CardinalityConstraint] = None,
    strategy: str = STRATEGY_AUTO,
    tuple_weigher: Optional[TupleWeigher] = None,
    join_order: str = JOIN_ORDER_WEIGHT,
    path_scoped: bool = False,
    tracer: Tracer = NULL_TRACER,
    deadline: Deadline = NO_DEADLINE,
) -> tuple[Database, GeneratorReport]:
    """Run the Figure 5 algorithm.

    Parameters
    ----------
    source:
        The original database ``D``.
    result_schema:
        The ``G'`` produced by the schema generator.
    seed_tids:
        Per token relation, the tuple ids containing the query tokens
        (the inverted index output). Relations absent from the result
        schema are ignored.
    cardinality:
        The constraint ``c``; defaults to unlimited.
    strategy:
        ``"naive"``, ``"round_robin"``, or ``"auto"`` (the paper's
        practical choice: RoundRobin only where the join is 1-to-n).
    tuple_weigher:
        Optional value-weight model (§7 future work): wherever the
        cardinality budget forces truncation, the heaviest tuples are
        kept instead of an arbitrary prefix.
    join_order:
        ``"weight"`` (the paper's heaviest-first rule) or ``"fifo"``
        (result-schema admission order) — the latter exists for the
        join-order ablation benchmark.
    path_scoped:
        The refinement the paper alludes to in §5.2 ("which of the
        tuples collected in a relation are used for subsequently
        joining tuples from other relations depends on the paths stored
        in P_d"). When True, a join edge is driven only by tuples that
        arrived along a path that actually *continues through that
        edge* in ``G'``; when False (default, the simple reading) every
        tuple of the source relation drives every outgoing edge.
    tracer:
        Observability hook (``repro.obs``): the run is wrapped in a
        ``"database_generator"`` span counting ``seed_tuples``,
        ``joins_executed``, ``joins_skipped`` and ``tuples_emitted``.
        No-op by default.
    deadline:
        Cooperative time budget (:mod:`repro.core.deadline`): checked
        before each seed fetch and at every join-loop iteration. Expiry
        stops generation exactly like an exhausted cardinality
        constraint — the tuples deposited so far form a valid partial
        answer and the report records ``stopped_by_deadline``; edges
        never executed land in ``skipped_edges``. Never-expiring by
        default.

    Returns
    -------
    (Database, GeneratorReport)
        The populated answer ``D'`` (foreign keys declared but *not*
        enforced — NaïveQ answers may legitimately contain dangling
        references, which is the paper's argument for RoundRobin) and an
        execution report.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick from {_STRATEGIES}")
    if join_order not in _JOIN_ORDERS:
        raise ValueError(
            f"unknown join order {join_order!r}; pick from {_JOIN_ORDERS}"
        )
    with tracer.span("database_generator"):
        answer, report = _populate(
            source,
            result_schema,
            seed_tids,
            cardinality,
            strategy,
            tuple_weigher,
            join_order,
            path_scoped,
            deadline,
        )
        tracer.count("seed_tuples", sum(report.seed_counts.values()))
        tracer.count("joins_executed", report.joins_executed)
        tracer.count("joins_skipped", len(report.skipped_edges))
        tracer.count("tuples_emitted", answer.total_tuples())
    return answer, report


def _populate(
    source: Database,
    result_schema: ResultSchema,
    seed_tids: Mapping[str, Iterable[int]],
    cardinality: Optional[CardinalityConstraint],
    strategy: str,
    tuple_weigher: Optional[TupleWeigher],
    join_order: str,
    path_scoped: bool,
    deadline: Deadline,
) -> tuple[Database, GeneratorReport]:
    """The Figure 5 walk proper (validation and tracing live above)."""
    cardinality = cardinality if cardinality is not None else Unlimited()

    report = GeneratorReport()
    schema = _result_database_schema(source, result_schema)
    # The answer has its own meter: the paper's cost model (Formula 1)
    # counts retrievals from the *original* database only, which land on
    # source.meter; in-memory processing of the answer is free.
    answer = Database(schema, enforce_foreign_keys=False)

    counts: dict[str, int] = {name: 0 for name in result_schema.relations}
    present: dict[str, set[int]] = {name: set() for name in result_schema.relations}

    # --- path scoping (§5.2's P_d dependence) -----------------------------
    # allowed_preds[edge key] = the arrival tags (previous edge key, or
    # ("root", origin) for a path's first hop) after which that edge may
    # consume a tuple, derived from the admitted projection paths.
    allowed_preds: dict[tuple, set] = {}
    if path_scoped:
        for path in result_schema.projection_paths:
            for position, hop in enumerate(path.joins):
                previous = (
                    ("root", path.origin)
                    if position == 0
                    else path.joins[position - 1].key
                )
                allowed_preds.setdefault(hop.key, set()).add(previous)
    # arrivals[relation][source tid] = set of arrival tags
    arrivals: dict[str, dict[int, set]] = {
        name: {} for name in result_schema.relations
    }

    def deposit(
        relation: str, rows: list[Row], via, matched_existing: set[int] = frozenset()
    ) -> int:
        added = 0
        tid_map = report.tid_maps.setdefault(relation, {})
        tags = arrivals[relation]
        for tid in matched_existing:
            tags.setdefault(tid, set()).add(via)
        for i, row in enumerate(rows):
            if i % 128 == 0 and i and deadline.expired():
                # cut mid-deposit: the rows already inserted stand, the
                # rest are dropped — same contract as a budget cut
                report.stopped_by_deadline = True
                break
            tags.setdefault(row.tid, set()).add(via)
            if row.tid in present[relation]:
                continue
            present[relation].add(row.tid)
            # rows are fetched on the relation's retrieval attributes,
            # which are the answer schema's columns, in its order
            tid_map[row.tid] = answer.insert(relation, row.values)
            added += 1
        counts[relation] += added
        return added

    # Step 1: seed tuples containing the query tokens (NaïveQ subset if
    # the cardinality constraint does not allow them all).
    for relation in result_schema.relations:
        if deadline.expired():
            report.stopped_by_deadline = True
            break
        tids = seed_tids.get(relation)
        if not tids:
            continue
        budget = cardinality.budget_for(relation, counts)
        attrs = result_schema.retrieval_attributes(relation)
        tid_list = sorted(tids)
        report.seed_matches[relation] = len(tid_list)
        report.seed_budgets[relation] = budget
        if (
            tuple_weigher is not None
            and budget is not None
            and len(tid_list) > budget
        ):
            rows, cut = _fetch_bounded(
                source.relation(relation), tid_list, attrs, None, deadline
            )
            rows.sort(key=tuple_weigher.sort_key(relation))
            rows = rows[:budget]
        else:
            rows, cut = _fetch_bounded(
                source.relation(relation), tid_list, attrs, budget, deadline
            )
        if cut:
            report.stopped_by_deadline = True
        report.seed_counts[relation] = deposit(
            relation, rows, via=("root", relation)
        )

    # Step 2: execute the join edges of G'.
    edges = list(result_schema.join_edges())
    in_degree = result_schema.in_degrees()
    executed: set[tuple] = set()
    # Every origin present in G' counts as populated (possibly empty) so
    # the walk can always make progress past unseeded origins.
    populated: set[str] = set(report.seed_counts) | {
        r for r in result_schema.origin_relations if r in counts
    }

    def pick_next() -> Optional[JoinEdge]:
        candidates = [
            e for e in edges if e.key not in executed and e.source in populated
        ]
        if not candidates:
            return None
        ready = [e for e in candidates if in_degree[e.source] == 0]
        # `ready` is the paper's postponement rule; if a cycle in G'
        # leaves nothing ready, fall back to the heaviest candidate so
        # the walk always terminates.
        pool = ready or candidates
        if join_order == JOIN_ORDER_FIFO:
            return pool[0]  # `edges` keeps admission order
        return max(pool, key=lambda e: (e.weight, e.key))

    while True:
        if report.stopped_by_deadline or deadline.expired():
            # expiry ends the walk like an exhausted budget; edges never
            # executed are reported as skipped below
            report.stopped_by_deadline = True
            break
        if cardinality.exhausted(counts):
            report.stopped_by_cardinality = True
            break
        edge = pick_next()
        if edge is None:
            break
        executed.add(edge.key)
        in_degree[edge.target] -= 1
        populated.add(edge.target)

        source_rel = answer.relation(edge.source)
        if path_scoped:
            predecessors = allowed_preds.get(edge.key, set())
            tid_map = report.tid_maps.get(edge.source, {})
            driving = set()
            for src_tid, tags in arrivals[edge.source].items():
                if tags & predecessors:
                    value = source_rel.fetch(
                        tid_map[src_tid], [edge.source_attribute]
                    )[0]
                    if value is not None:
                        driving.add(value)
        else:
            driving = set()
            for seen, row in enumerate(source_rel.scan([edge.source_attribute])):
                if seen % (4 * _DEADLINE_CHUNK) == 0 and seen and deadline.expired():
                    report.stopped_by_deadline = True
                    break
                if row[0] is not None:
                    driving.add(row[0])
        budget = cardinality.budget_for(edge.target, counts)
        if not driving or (budget is not None and budget <= 0):
            report.skipped_edges.append(edge)
            continue

        attrs = result_schema.retrieval_attributes(edge.target)
        target_rel = source.relation(edge.target)
        use_round_robin = strategy == STRATEGY_ROUND_ROBIN or (
            strategy == STRATEGY_AUTO and not _is_to_one(source, edge)
        )
        fetch = _fetch_round_robin if use_round_robin else _fetch_naive
        rows, matched_existing = fetch(
            target_rel,
            edge.target_attribute,
            sorted(driving),
            attrs,
            present[edge.target],
            budget,
            tuple_weigher,
            deadline,
        )
        added = deposit(
            edge.target, rows, via=edge.key, matched_existing=matched_existing
        )
        report.executions.append(
            JoinExecution(
                edge=edge,
                strategy=(
                    STRATEGY_ROUND_ROBIN if use_round_robin else STRATEGY_NAIVE
                ),
                driving_values=len(driving),
                tuples_fetched=len(rows),
                tuples_new=added,
                budget=budget,
            )
        )

    remaining = [e for e in edges if e.key not in executed]
    report.skipped_edges.extend(remaining)
    return answer, report
