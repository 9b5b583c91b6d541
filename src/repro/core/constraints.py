"""Degree and cardinality constraints (paper §3.3, Tables 1 and 2).

A précis answer is bounded by a pair of constraints:

* a **degree constraint** ``d`` decides which projection paths enter the
  result schema — Table 1 lists three forms: at most *r* top-weighted
  projections, only projections of weight ≥ *w0*, only projections of
  path length ≤ *l0*;
* a **cardinality constraint** ``c`` decides how many tuples enter the
  result database — Table 2 lists two forms: at most *c0* tuples total,
  at most *c0* tuples per relation. "A combination of those is also
  possible" — provided here by the composite classes.

Formula (3) of the paper derives a cardinality constraint from a target
response time, given the cost model's ``IndexTime``/``TupleTime``; see
:func:`cardinality_for_response_time`.

Degree-constraint protocol
--------------------------

The Result Schema Generator pops candidate paths off a queue ordered by
decreasing weight and asks ``d(P_d ∪ {p})``. The check is expressed here
as ``admits(state, candidate)``. On failure the paper's algorithm stops
outright, which is exact when the failure is *monotone* along the queue
order (true for the weight form — every later path weighs no more — and
for the count form). The length form is not monotone in weight order, so
:class:`MaxPathLength` reports ``terminal_on_failure = False`` and the
generator skips the path instead of stopping; this keeps the constraint
exact rather than weight-order-heuristic.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..graph.paths import Path
from ..relational.cost import CostParameters

__all__ = [
    "SchemaState",
    "DegreeConstraint",
    "TopRProjections",
    "WeightThreshold",
    "MaxPathLength",
    "CompositeDegree",
    "CardinalityConstraint",
    "MaxTotalTuples",
    "MaxTuplesPerRelation",
    "CompositeCardinality",
    "Unlimited",
    "cardinality_for_response_time",
    "ConstraintOptionError",
    "read_constraints",
]


# --------------------------------------------------------------------- degree


@dataclass
class SchemaState:
    """Running state of the Result Schema Generator the constraints see."""

    projection_paths: list[Path] = field(default_factory=list)
    #: distinct (relation, attribute) pairs projected so far
    attributes: set[tuple[str, str]] = field(default_factory=set)

    def admit(self, path: Path) -> None:
        assert path.is_projection_path
        self.projection_paths.append(path)
        terminal = path.terminal_attribute
        assert terminal is not None
        self.attributes.add(terminal)


class DegreeConstraint(ABC):
    """Decides whether a candidate path may join the result schema."""

    #: True iff a rejected candidate implies every later queue entry is
    #: also rejected (failure is monotone in the queue's weight order).
    terminal_on_failure: bool = True

    @abstractmethod
    def admits(self, state: SchemaState, candidate: Path) -> bool:
        """``d(P_d ∪ {candidate})`` of the paper."""

    def describe(self) -> str:
        """Short human-readable form for EXPLAIN provenance records."""
        return repr(self)


@dataclass(frozen=True)
class TopRProjections(DegreeConstraint):
    """Table 1, row 1: "selects up to r top-weighted projections".

    Following the §6 experiments ("we considered the degree d to be the
    maximum number of attributes projected in the answer"), *r* bounds
    the number of *distinct projected attributes*; a second path landing
    on an already-projected attribute is free.
    """

    r: int
    terminal_on_failure: bool = field(default=True, init=False)

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("r must be non-negative")

    def admits(self, state: SchemaState, candidate: Path) -> bool:
        if candidate.is_projection_path:
            terminal = candidate.terminal_attribute
            return len(state.attributes | {terminal}) <= self.r
        # A join path is only worth keeping if a *new* attribute could
        # still be admitted beyond it.
        return len(state.attributes) < self.r

    def describe(self) -> str:
        return f"top-r projections (r={self.r})"


@dataclass(frozen=True)
class WeightThreshold(DegreeConstraint):
    """Table 1, row 2: only projections of weight ≥ w0.

    The paper highlights this form as "more immune to the effects of
    database normalization or restructuring" (§3.3).
    """

    w0: float
    terminal_on_failure: bool = field(default=True, init=False)

    def __post_init__(self):
        if not 0.0 <= self.w0 <= 1.0:
            raise ValueError("w0 must be in [0,1]")

    def admits(self, state: SchemaState, candidate: Path) -> bool:
        # Weights only shrink along a path, so the check is the same for
        # join paths (can anything beyond still reach w0?) and for
        # projection paths (is this projection heavy enough?).
        return candidate.weight >= self.w0

    def describe(self) -> str:
        return f"weight threshold (w0={self.w0:g})"


@dataclass(frozen=True)
class MaxPathLength(DegreeConstraint):
    """Table 1, row 3: only projections with path length ≤ l0."""

    l0: int
    terminal_on_failure: bool = field(default=False, init=False)

    def __post_init__(self):
        if self.l0 < 0:
            raise ValueError("l0 must be non-negative")

    def admits(self, state: SchemaState, candidate: Path) -> bool:
        if candidate.is_projection_path:
            return candidate.length <= self.l0
        # A join path of length l0 can no longer host a projection
        # within the budget (the projection edge adds 1).
        return candidate.length < self.l0

    def describe(self) -> str:
        return f"max path length (l0={self.l0})"


@dataclass(frozen=True)
class CompositeDegree(DegreeConstraint):
    """Conjunction of degree constraints (all must admit)."""

    parts: tuple[DegreeConstraint, ...]

    def __init__(self, *parts: DegreeConstraint):
        if not parts:
            raise ValueError("CompositeDegree needs at least one part")
        object.__setattr__(self, "parts", tuple(parts))

    @property
    def terminal_on_failure(self) -> bool:  # type: ignore[override]
        # Safe only if *every* possible failure is terminal; a composite
        # with a non-terminal part must keep scanning the queue.
        return all(part.terminal_on_failure for part in self.parts)

    def admits(self, state: SchemaState, candidate: Path) -> bool:
        return all(part.admits(state, candidate) for part in self.parts)

    def failing_terminal(self, state: SchemaState, candidate: Path) -> bool:
        """True iff some *terminal* part rejects the candidate — in that

        case the generator may stop even though the composite as a whole
        is non-terminal."""
        return any(
            part.terminal_on_failure and not part.admits(state, candidate)
            for part in self.parts
        )

    def failing_parts(
        self, state: SchemaState, candidate: Path
    ) -> tuple[DegreeConstraint, ...]:
        """The parts rejecting *candidate* — EXPLAIN names these rather
        than the whole conjunction."""
        return tuple(
            part
            for part in self.parts
            if not part.admits(state, candidate)
        )

    def describe(self) -> str:
        return " AND ".join(part.describe() for part in self.parts)


# ---------------------------------------------------------------- cardinality


class CardinalityConstraint(ABC):
    """Budgets how many tuples may still be added to the result."""

    def describe(self) -> str:
        """Short human-readable form for EXPLAIN provenance records."""
        return repr(self)

    @abstractmethod
    def budget_for(
        self, relation: str, cardinalities: Mapping[str, int]
    ) -> Optional[int]:
        """Max tuples that may still be added to *relation* given the

        current per-relation result *cardinalities*; ``None`` means
        unbounded."""

    def exhausted(self, cardinalities: Mapping[str, int]) -> bool:
        """True iff no relation may receive any further tuple."""
        budget = self.budget_for("", cardinalities)
        return budget is not None and budget <= 0


@dataclass(frozen=True)
class Unlimited(CardinalityConstraint):
    """No cardinality bound (useful for tests and tiny databases)."""

    def budget_for(self, relation, cardinalities):
        return None

    def exhausted(self, cardinalities):
        return False

    def describe(self) -> str:
        return "unlimited"


@dataclass(frozen=True)
class MaxTotalTuples(CardinalityConstraint):
    """Table 2, row 1: ``card(D') ≤ c0``."""

    c0: int

    def __post_init__(self):
        if self.c0 < 0:
            raise ValueError("c0 must be non-negative")

    def budget_for(self, relation, cardinalities):
        return max(0, self.c0 - sum(cardinalities.values()))

    def exhausted(self, cardinalities):
        return sum(cardinalities.values()) >= self.c0

    def describe(self) -> str:
        return f"max total tuples (c0={self.c0})"


@dataclass(frozen=True)
class MaxTuplesPerRelation(CardinalityConstraint):
    """Table 2, row 2: ``card(R'_t) ≤ c0`` for every relation."""

    c0: int

    def __post_init__(self):
        if self.c0 < 0:
            raise ValueError("c0 must be non-negative")

    def budget_for(self, relation, cardinalities):
        return max(0, self.c0 - cardinalities.get(relation, 0))

    def exhausted(self, cardinalities):
        # Per-relation budgets never exhaust globally: an as-yet-empty
        # relation could always accept tuples.
        return self.c0 == 0

    def describe(self) -> str:
        return f"max tuples per relation (c0={self.c0})"


@dataclass(frozen=True)
class CompositeCardinality(CardinalityConstraint):
    """Conjunction of cardinality constraints (tightest budget wins)."""

    parts: tuple[CardinalityConstraint, ...]

    def __init__(self, *parts: CardinalityConstraint):
        if not parts:
            raise ValueError("CompositeCardinality needs at least one part")
        object.__setattr__(self, "parts", tuple(parts))

    def budget_for(self, relation, cardinalities):
        budgets = [
            b
            for b in (
                part.budget_for(relation, cardinalities) for part in self.parts
            )
            if b is not None
        ]
        return min(budgets) if budgets else None

    def exhausted(self, cardinalities):
        return any(part.exhausted(cardinalities) for part in self.parts)

    def describe(self) -> str:
        return " AND ".join(part.describe() for part in self.parts)


def cardinality_for_response_time(
    target_cost: float,
    n_relations: int,
    params: Optional[CostParameters] = None,
) -> MaxTuplesPerRelation:
    """Formula (3): ``c_R = cost_M / (n_R · (IndexTime + TupleTime))``.

    Turns a desired response budget (in the cost model's abstract units)
    into a per-relation cardinality constraint.
    """
    if target_cost < 0:
        raise ValueError("target cost must be non-negative")
    if n_relations <= 0:
        raise ValueError("n_relations must be positive")
    params = params or CostParameters()
    c_r = math.floor(target_cost / (n_relations * params.unit_fetch))
    return MaxTuplesPerRelation(max(0, c_r))


# -------------------------------------------------------------------- options


class ConstraintOptionError(ValueError):
    """A constraint option whose value its constraint rejects.

    *option* is the option's name (``"per_relation"``), *value* what was
    given and *reason* the constraint's complaint.
    """

    def __init__(self, option: str, value, reason: str):
        super().__init__(f"bad {option!r}: {value!r} ({reason})")
        self.option = option
        self.value = value
        self.reason = reason


def _option(name: str, build, value):
    if value is None:
        return None
    try:
        return build(value)
    except ValueError as exc:
        raise ConstraintOptionError(name, value, str(exc)) from None


def _compose(composite, parts: list):
    parts = [part for part in parts if part is not None]
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else composite(*parts)


def read_constraints(
    degree_weight: Optional[float] = None,
    degree_top: Optional[int] = None,
    degree_length: Optional[int] = None,
    per_relation: Optional[int] = None,
    total: Optional[int] = None,
) -> tuple[Optional[DegreeConstraint], Optional[CardinalityConstraint]]:
    """The ``(degree, cardinality)`` pair that the constraint options of
    ``repro query`` and of ``/ask`` name.

    A side with no option given is None, so the engine default applies;
    several options on one side compose (:class:`CompositeDegree`,
    :class:`CompositeCardinality`). A value its constraint rejects — a
    negative count, a weight outside [0, 1] or NaN — raises
    :class:`ConstraintOptionError` naming the option.
    """
    degree = _compose(
        CompositeDegree,
        [
            _option("degree_weight", WeightThreshold, degree_weight),
            _option("degree_top", TopRProjections, degree_top),
            _option("degree_length", MaxPathLength, degree_length),
        ],
    )
    cardinality = _compose(
        CompositeCardinality,
        [
            _option("per_relation", MaxTuplesPerRelation, per_relation),
            _option("total", MaxTotalTuples, total),
        ],
    )
    return degree, cardinality
