"""The Result Database Generator — Figure 5 of the paper.

Populates the result schema ``D'`` produced by the schema generator:

1. seed every token relation with (a cardinality-bounded subset of) the
   tuples containing the query tokens, via ``σ_Tids(R)[π(R)]``;
2. walk the join edges of ``G'`` in decreasing weight, executing each as
   an IN-list selection on the destination driven by the join-attribute
   values already collected in the source — *never* an actual join query;
3. postpone joins departing from a relation whose in-degree has not yet
   reached zero, so all arrivals deposit (and deduplicate) their tuples
   before the relation drives further joins (the order of 2 and 3 is
   :attr:`~repro.core.result_schema.ResultSchema.walk`);
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
from typing import Container, Iterable, Mapping, Optional

from ..graph.schema_graph import JoinEdge
from ..obs import NULL_TRACER, Tracer
from ..relational.database import Database
from ..relational.row import Row
from .constraints import CardinalityConstraint, Unlimited
from .deadline import NO_DEADLINE, Deadline
from .result_schema import ResultSchema, join_walk
from .value_weights import TupleWeigher

__all__ = [
    "generate_result_database",
    "GeneratorReport",
    "TupleBatch",
    "STRATEGY_NAIVE",
    "STRATEGY_ROUND_ROBIN",
    "STRATEGY_AUTO",
    "STRATEGIES",
    "JOIN_ORDER_WEIGHT",
    "JOIN_ORDER_FIFO",
]

STRATEGY_NAIVE = "naive"
STRATEGY_ROUND_ROBIN = "round_robin"
STRATEGY_AUTO = "auto"
#: every strategy name the generator accepts
STRATEGIES = (STRATEGY_NAIVE, STRATEGY_ROUND_ROBIN, STRATEGY_AUTO)

#: the paper's join ordering: heaviest executable edge first, so
#: "relations in D' that are most related to the query are populated
#: first" and budget exhaustion cuts off only weakly connected parts
JOIN_ORDER_WEIGHT = "weight"
#: ablation alternative: execute edges in result-schema admission order
JOIN_ORDER_FIFO = "fifo"
_JOIN_ORDERS = (JOIN_ORDER_WEIGHT, JOIN_ORDER_FIFO)


def edge_text(edge: JoinEdge) -> str:
    """A join edge as the plan and EXPLAIN print it,
    ``"MOVIE.ID → CAST.MID"``."""
    return (
        f"{edge.source}.{edge.source_attribute} → "
        f"{edge.target}.{edge.target_attribute}"
    )


@dataclass(frozen=True)
class TupleBatch:
    """One batch of tuples the generator deposited: a seed fetch or an
    executed join edge. EXPLAIN lists these records as they are."""

    #: the relation that received the batch
    relation: str
    #: the executed join edge; None for a seed
    edge: Optional[JoinEdge]
    #: retrieval strategy used (``naive`` / ``round_robin``); None for a
    #: seed, which fetches by tid list
    strategy: Optional[str]
    #: distinct driving-attribute values (joins) or matching seed tids
    driving_values: int
    #: tuples the fetch returned (seeds: the tuples deposited)
    tuples_fetched: int
    #: tuples new to the answer (after dedup)
    tuples_new: int
    #: cardinality budget in force for the batch (None = unbounded)
    budget: Optional[int] = None

    @property
    def kind(self) -> str:
        return "seed" if self.edge is None else "join"

    @property
    def via_edge(self) -> Optional[str]:
        return None if self.edge is None else edge_text(self.edge)

    @property
    def edge_weight(self) -> Optional[float]:
        return None if self.edge is None else self.edge.weight

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "kind": self.kind,
            "via_edge": self.via_edge,
            "strategy": self.strategy,
            "driving_values": self.driving_values,
            "tuples_fetched": self.tuples_fetched,
            "tuples_new": self.tuples_new,
            "budget": self.budget,
            "edge_weight": self.edge_weight,
        }


@dataclass
class GeneratorReport:
    """What the generator did, in order — read by EXPLAIN, tests and
    benches."""

    #: one record per seed fetch and per executed join edge, in deposit
    #: order (the seeds come first)
    batches: list[TupleBatch] = field(default_factory=list)
    skipped_edges: list[JoinEdge] = field(default_factory=list)
    stopped_by_cardinality: bool = False
    #: an expired deadline ended generation early (seeding or the join
    #: walk); the answer built so far is valid but partial
    stopped_by_deadline: bool = False
    #: per relation: source tuple id -> answer tuple id, for every tuple
    #: that made it into the answer (used by the translator to find the
    #: seed tuples again)
    tid_maps: dict[str, dict[int, int]] = field(default_factory=dict)

    @property
    def seed_counts(self) -> dict[str, int]:
        """Per seeded relation, the tuples deposited."""
        return {
            batch.relation: batch.tuples_new
            for batch in self.batches
            if batch.edge is None
        }

    @property
    def executions(self) -> list[TupleBatch]:
        """The executed join edges' batches, in execution order."""
        return [batch for batch in self.batches if batch.edge is not None]

    @property
    def joins_executed(self) -> int:
        return len(self.executions)

    def tuples_retrieved(self) -> int:
        return sum(batch.tuples_new for batch in self.batches)


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
    weigher: Optional[TupleWeigher] = None,
) -> tuple[list[Row], bool]:
    """Read at most *budget* of *tids*: a tid-order prefix, or with a
    *weigher* the heaviest ones. ``fetch_many`` runs in chunks,
    stopping between chunks once the deadline expires. Returns (rows
    read, cut-by-deadline)."""
    tid_list = list(tids)
    heaviest = weigher is not None and budget is not None and len(tid_list) > budget
    limit = None if heaviest else budget
    out: list[Row] = []
    cut = False
    for start in range(0, len(tid_list), _DEADLINE_CHUNK):
        if limit is not None and len(out) >= limit:
            break
        if start and deadline.expired():
            cut = True
            break
        remaining = None if limit is None else limit - len(out)
        out.extend(
            relation.fetch_many(
                tid_list[start : start + _DEADLINE_CHUNK], attrs, remaining
            )
        )
    if heaviest:
        # value-weighted selection (§7 extension): score all candidates,
        # keep the heaviest — costs the full read, which the meter records
        out.sort(key=weigher.sort_key(relation.name))
        del out[budget:]
    return out, cut


def _fetch_naive(
    relation,
    attribute,
    values,
    attrs,
    exclude: Container[int],
    budget: Optional[int],
    weigher: Optional[TupleWeigher] = None,
    deadline: Deadline = NO_DEADLINE,
) -> tuple[list[Row], set[int]]:
    """NaïveQ: IN-list probes for the driving values, then a
    budget-bounded read of the matches not in *exclude*. Returns (new
    rows, matching tids that were already present)."""
    values = list(values)
    tids: set[int] = set()
    for start in range(0, len(values), _DEADLINE_CHUNK):
        if start and deadline.expired():
            break
        tids |= relation.lookup_in(
            attribute, values[start : start + _DEADLINE_CHUNK]
        )
    matched_existing = {tid for tid in tids if tid in exclude}
    fresh = [tid for tid in sorted(tids) if tid not in exclude]
    rows, __ = _fetch_bounded(relation, fresh, attrs, budget, deadline, weigher)
    return rows, matched_existing


def _fetch_round_robin(
    relation,
    attribute,
    values,
    attrs,
    exclude: Container[int],
    budget: Optional[int],
    weigher: Optional[TupleWeigher] = None,
    deadline: Deadline = NO_DEADLINE,
) -> tuple[list[Row], set[int]]:
    """RoundRobin: one scan of joining tuples per distinct driving
    value, merged one pick per open scan per round until *budget*
    picks are not in *exclude*; exhausted scans close. A scan holds
    its tids in ascending order or, with a *weigher*, heaviest first.

    The charges behind Figure 9's RoundRobin penalty: a plain scan
    costs one index lookup, then one scan step (the cursor advance)
    and one tuple read per visited tuple, held ones included — read in
    one chunked batch after the merge. A weighted scan costs one scan
    step as it opens and a read of every match. Returns (new rows,
    visited tids that were already present)."""
    weighed: dict[int, Row] = {}
    scans: list[list[int]] = []
    for i, value in enumerate(dict.fromkeys(values)):
        if i % 256 == 0 and i and deadline.expired():
            break
        tids = sorted(relation.lookup(attribute, value))
        if weigher is not None:
            relation.meter.charge_scan_step()  # the scan's cursor opens
            matches = relation.fetch_many(tids, attrs)
            matches.sort(key=weigher.sort_key(relation.name))
            weighed.update((row.tid, row) for row in matches)
            tids = [row.tid for row in matches]
        if tids:
            scans.append(tids[::-1])  # pop() yields the scan's next tid
    picks: list[int] = []
    new = 0
    cursor = 0
    while scans and (budget is None or new < budget):
        if picks and len(picks) % 64 == 0 and deadline.expired():
            break
        if cursor >= len(scans):
            cursor = 0
        scan = scans[cursor]
        tid = scan.pop()
        if scan:
            cursor += 1
        else:
            del scans[cursor]  # exhausted: the scan closes
        picks.append(tid)
        if tid not in exclude:
            new += 1
    if weigher is None:
        rows, __ = _fetch_bounded(relation, picks, attrs, None, deadline)
        relation.meter.charge_scan_step(len(rows))  # a cursor advance each
    else:
        rows = [weighed[tid] for tid in picks]
    matched_existing = {row.tid for row in rows if row.tid in exclude}
    return [row for row in rows if row.tid not in exclude], matched_existing


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
        Per origin relation of ``G'``, the tuple ids containing the
        query tokens (the inverted index output). Relations absent from
        the result schema are ignored. The walk starts at ``G'``'s
        origins: tids given for another relation of ``G'`` are
        deposited, but joins leave it only once the walk reaches it.
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
        (the same walk in result-schema admission order) — the latter
        exists for the join-order ablation benchmark.
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
        before each seed fetch, before each join edge and once after
        the last, and inside long fetches and deposits. Expiry
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
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; pick from {STRATEGIES}")
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
    # The answer has its own meter: the paper's cost model (Formula 1)
    # counts retrievals from the *original* database only, which land on
    # source.meter; in-memory processing of the answer is free.
    answer = Database(
        result_schema.answer_schema(source.schema), enforce_foreign_keys=False
    )

    counts: dict[str, int] = {name: 0 for name in result_schema.relations}
    # held[relation] = {source tid: source row}, in deposit order: the
    # walk dedups against these rows and reads its driving values from
    # them, never from the answer it is writing
    held: dict[str, dict[int, Row]] = {
        name: {} for name in result_schema.relations
    }

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
            if row.tid in held[relation]:
                continue
            held[relation][row.tid] = row
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
        tid_list = sorted(tids)
        rows, cut = _fetch_bounded(
            source.relation(relation),
            tid_list,
            result_schema.retrieval_attributes(relation),
            budget,
            deadline,
            tuple_weigher,
        )
        if cut:
            report.stopped_by_deadline = True
        added = deposit(relation, rows, via=("root", relation))
        report.batches.append(
            TupleBatch(
                relation=relation,
                edge=None,
                strategy=None,
                driving_values=len(tid_list),
                tuples_fetched=added,
                tuples_new=added,
                budget=budget,
            )
        )

    # Step 2: execute the join edges of G' in walk order, checking the
    # deadline and the budget before each edge and once more after the
    # last (the None), so that a cut inside the last join still marks
    # the report.
    walk = (
        result_schema.walk
        if join_order == JOIN_ORDER_WEIGHT
        else join_walk(  # admission order among the ready edges
            result_schema.join_edges,
            result_schema.origin_relations,
            pick=lambda pool: pool[0],
        )
    )
    executed: set[tuple] = set()
    for edge in (*walk, None):
        if report.stopped_by_deadline or deadline.expired():
            # expiry ends the walk like an exhausted budget; edges never
            # executed are reported as skipped below
            report.stopped_by_deadline = True
            break
        if cardinality.exhausted(counts):
            report.stopped_by_cardinality = True
            break
        if edge is None:
            break
        executed.add(edge.key)

        driving_rows = held[edge.source].values()
        if path_scoped:
            predecessors = allowed_preds.get(edge.key, set())
            driving_rows = [
                held[edge.source][tid]
                for tid, tags in arrivals[edge.source].items()
                if tags & predecessors
            ]
        position = result_schema.retrieval_attributes(edge.source).index(
            edge.source_attribute
        )
        driving = {row.values[position] for row in driving_rows}
        driving.discard(None)
        budget = cardinality.budget_for(edge.target, counts)
        if not driving or (budget is not None and budget <= 0):
            report.skipped_edges.append(edge)
            continue

        target_rel = source.relation(edge.target)
        use_round_robin = strategy == STRATEGY_ROUND_ROBIN or (
            strategy == STRATEGY_AUTO and not _is_to_one(source, edge)
        )
        fetch = _fetch_round_robin if use_round_robin else _fetch_naive
        rows, matched_existing = fetch(
            target_rel,
            edge.target_attribute,
            sorted(driving),
            result_schema.retrieval_attributes(edge.target),
            held[edge.target],
            budget,
            tuple_weigher,
            deadline,
        )
        added = deposit(
            edge.target, rows, via=edge.key, matched_existing=matched_existing
        )
        report.batches.append(
            TupleBatch(
                relation=edge.target,
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

    report.skipped_edges.extend(
        e for e in result_schema.join_edges if e.key not in executed
    )
    return answer, report
