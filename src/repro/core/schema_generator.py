"""The Result Schema Generator — Figure 3 of the paper.

Best-first traversal of the weighted database schema graph:

1. seed a priority queue ``QP`` with every edge attached to a relation
   containing query tokens;
2. repeatedly pop the highest-weight candidate path ``p`` (ties: shorter
   first);
3. check the degree constraint ``d(P_d ∪ {p})`` — on a *terminal*
   failure stop; on a non-terminal failure (see
   :mod:`repro.core.constraints`) skip;
4. projection paths are admitted into ``G'``;
5. join paths are expanded by every adjacent edge, in decreasing edge
   weight so that the first failing extension prunes the rest.

The output is a :class:`~repro.core.result_schema.ResultSchema`.
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence

from ..graph.paths import Path
from ..graph.schema_graph import SchemaGraph
from ..obs import NULL_TRACER, Tracer
from ..obs.explain import SchemaStop
from .constraints import CompositeDegree, DegreeConstraint, SchemaState
from .deadline import NO_DEADLINE, Deadline
from .result_schema import ResultSchema

__all__ = ["generate_result_schema"]

_DEADLINE_STOP = SchemaStop(kind="deadline", constraint="deadline expired")


def _is_terminal_failure(
    constraint: DegreeConstraint, state: SchemaState, candidate: Path
) -> bool:
    """Whether a rejection of *candidate* should stop the whole run."""
    if constraint.terminal_on_failure:
        return True
    if isinstance(constraint, CompositeDegree):
        return constraint.failing_terminal(state, candidate)
    return False


def _describe_failure(
    constraint: DegreeConstraint, state: SchemaState, candidate: Path
) -> str:
    """Name the constraint (or the failing composite part) that
    rejected *candidate* — what EXPLAIN reports as the bound."""
    if isinstance(constraint, CompositeDegree):
        failing = constraint.failing_parts(state, candidate)
        if failing:
            return " AND ".join(part.describe() for part in failing)
    return constraint.describe()


def generate_result_schema(
    graph: SchemaGraph,
    token_relations: Sequence[str],
    degree: DegreeConstraint,
    tracer: Tracer = NULL_TRACER,
    deadline: Deadline = NO_DEADLINE,
) -> ResultSchema:
    """Run the Figure 3 algorithm.

    Parameters
    ----------
    graph:
        The weighted database schema graph ``G``.
    token_relations:
        Relations in which the query tokens were found (the inverted
        index output). Order is irrelevant; duplicates are ignored.
    degree:
        The degree constraint ``d``.
    tracer:
        Observability hook (``repro.obs``): the run is wrapped in a
        ``"schema_generator"`` span counting ``relations_expanded``,
        ``paths_pruned``, ``paths_pushed``, ``paths_popped`` and
        ``paths_admitted``. No-op by default.
    deadline:
        Cooperative time budget (:mod:`repro.core.deadline`): checked
        once on entry and at every queue pop. Expiry ends the traversal
        exactly like a terminal degree-constraint failure — the paths
        admitted so far form a valid (partial) schema whose
        :attr:`~repro.core.result_schema.ResultSchema.stop` records
        ``kind="deadline"``. Never-expiring by default.

    Returns
    -------
    ResultSchema
        The sub-schema ``G'`` with its admitted projection paths.
    """
    origins = tuple(dict.fromkeys(token_relations))
    for origin in origins:
        if not graph.has_relation(origin):
            raise ValueError(f"token relation {origin} not in schema graph")

    with tracer.span("schema_generator"):
        result, counts = _best_first_traversal(graph, origins, degree, deadline)
        tracer.count("relations_expanded", len(result.relations))
        for name, value in counts.items():
            tracer.count(name, value)
    return result


def _best_first_traversal(
    graph: SchemaGraph,
    origins: tuple[str, ...],
    degree: DegreeConstraint,
    deadline: Deadline,
) -> tuple[ResultSchema, dict[str, int]]:
    """The Figure 3 loop proper (validation and tracing live above),
    and the run's path counters."""
    admitted: list[Path] = []
    state = SchemaState()
    counts = dict.fromkeys(
        ("paths_pruned", "paths_pushed", "paths_popped", "paths_admitted"), 0
    )

    # Cooperative deadline: checked on entry and per pop. Expiry cuts
    # the queue like a terminal degree failure, leaving a valid partial
    # schema that reports the deadline as its stop reason.
    if deadline.expired():
        return ResultSchema(origins, (), _DEADLINE_STOP), counts

    # EXPLAIN provenance: the first degree rejection seen anywhere (at a
    # pop or while extending). Even when it is not terminal — i.e. the
    # traversal keeps scanning — it is the proof that the degree
    # constraint, not graph exhaustion, bounded the schema.
    first_rejection: Optional[SchemaStop] = None

    def record_rejection(candidate: Path) -> None:
        nonlocal first_rejection
        if first_rejection is None:
            first_rejection = SchemaStop(
                kind="degree",
                constraint=_describe_failure(degree, state, candidate),
                rejected_path=repr(candidate),
                rejected_weight=candidate.weight,
            )

    # Step 1: QP <- every edge attached to a token relation.
    heap: list[tuple[tuple, Path]] = []
    counter = 0  # FIFO tiebreak for fully identical sort keys

    def push(path: Path) -> None:
        nonlocal counter
        heapq.heappush(heap, ((*path.sort_key, counter), path))
        counter += 1
        counts["paths_pushed"] += 1

    for origin in origins:
        for edge in graph.edges_attached_to(origin):
            push(Path.seed(edge))

    # Step 2: best-first expansion.
    deadline_tripped = False
    while heap:
        if deadline.expired():
            deadline_tripped = True
            break
        __, path = heapq.heappop(heap)
        counts["paths_popped"] += 1

        if not degree.admits(state, path):
            record_rejection(path)
            if _is_terminal_failure(degree, state, path):
                break
            continue

        if path.is_projection_path:
            admitted.append(path)
            state.admit(path)
            counts["paths_admitted"] += 1
            continue

        # Join path: expand by every adjacent edge, heaviest first, so
        # the first inadmissible extension prunes the remainder (their
        # weights are no larger). Extensions that merely cannot attach
        # (cycle, wrong endpoint) are skipped without pruning.
        terminal = path.terminal_relation
        adjacent = sorted(
            graph.edges_attached_to(terminal),
            key=lambda e: -e.weight,
        )
        for edge in adjacent:
            if not path.can_extend(edge):
                continue
            extended = path.extend(edge)
            if not degree.admits(state, extended):
                record_rejection(extended)
                if _is_terminal_failure(degree, state, extended):
                    counts["paths_pruned"] += 1
                    break
                continue
            push(extended)

    if deadline_tripped:
        # the deadline, not the degree constraint, ended the traversal
        stop = _DEADLINE_STOP
    elif first_rejection is not None:
        stop = first_rejection
    else:
        stop = SchemaStop(kind="exhausted")
    return ResultSchema(origins, tuple(admitted), stop), counts
