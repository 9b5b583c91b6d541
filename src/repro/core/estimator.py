"""Predicting result-database size before generating it.

The paper derives cardinality constraints from a response-time budget
via Formula (3), which needs ``n_R`` and assumes every relation
contributes ``c_R`` tuples. This module supplies the other half a
deployment needs: a *size estimate* for a result schema, computed from
database statistics (join fan-outs, §-style selectivities) before any
tuple is fetched. Uses:

* warn a user that an unconstrained précis would return half the
  database;
* pick a per-relation cap that hits a target total
  (:func:`suggest_cardinality`);
* order exploration steps by expected volume.

The estimate follows the same walk as the Result Database Generator —
the join order stored on the result schema
(:attr:`~repro.core.result_schema.ResultSchema.walk`: heaviest ready
edge first, in-degree postponement) — but propagates *expected counts*:
``E[target] += E[source] · mean_fanout(edge)``, capped by the target's
true cardinality and deduplicated arrivals approximated by the
inclusion bound ``min(sum of arrivals, |target|)``.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from ..relational.database import Database
from .constraints import MaxTuplesPerRelation
from .result_schema import ResultSchema

__all__ = ["estimate_cardinalities", "estimate_total", "suggest_cardinality"]


def _mean_fanout(db: Database, source: str, source_attr: str,
                 target: str, target_attr: str) -> float:
    """Expected number of target tuples joining one source tuple."""
    target_rel = db.relation(target)
    if not len(target_rel):
        return 0.0
    distinct = len(target_rel.distinct_values(target_attr))
    if distinct == 0:
        return 0.0
    # average tuples per distinct join value, discounted by the chance
    # that a source value actually appears in the target
    per_value = len(target_rel) / distinct
    source_rel = db.relation(source)
    source_distinct = len(source_rel.distinct_values(source_attr)) or 1
    hit_rate = min(1.0, distinct / source_distinct)
    return per_value * hit_rate


def estimate_cardinalities(
    db: Database,
    result_schema: ResultSchema,
    seed_counts: Mapping[str, int],
    per_relation_cap: Optional[int] = None,
) -> dict[str, float]:
    """Expected tuples per relation of the answer (floats; not rounded).

    *seed_counts* gives the number of token tuples per origin relation
    (e.g. from the inverted index match). *per_relation_cap* simulates a
    ``MaxTuplesPerRelation`` constraint.
    """
    expected: dict[str, float] = {
        name: 0.0 for name in result_schema.relations
    }
    for relation, count in seed_counts.items():
        if relation in expected:
            expected[relation] = float(
                min(count, len(db.relation(relation)))
            )
            if per_relation_cap is not None:
                expected[relation] = min(
                    expected[relation], float(per_relation_cap)
                )

    for edge in result_schema.walk:
        fanout = _mean_fanout(
            db, edge.source, edge.source_attribute,
            edge.target, edge.target_attribute,
        )
        arriving = expected[edge.source] * fanout
        total = expected[edge.target] + arriving
        ceiling = float(len(db.relation(edge.target)))
        if per_relation_cap is not None:
            ceiling = min(ceiling, float(per_relation_cap))
        expected[edge.target] = min(total, ceiling)
    return expected


def estimate_total(
    db: Database,
    result_schema: ResultSchema,
    seed_counts: Mapping[str, int],
    per_relation_cap: Optional[int] = None,
) -> float:
    """Expected total tuples of the answer."""
    return sum(
        estimate_cardinalities(
            db, result_schema, seed_counts, per_relation_cap
        ).values()
    )


def suggest_cardinality(
    db: Database,
    result_schema: ResultSchema,
    seed_counts: Mapping[str, int],
    target_total: int,
) -> MaxTuplesPerRelation:
    """The largest per-relation cap whose estimated total stays within

    *target_total* (binary search over the cap; at least 1)."""
    if target_total < 1:
        raise ValueError("target_total must be positive")
    low, high = 1, max(
        1,
        max((len(db.relation(r)) for r in result_schema.relations), default=1),
    )
    best = 1
    while low <= high:
        mid = (low + high) // 2
        total = estimate_total(db, result_schema, seed_counts, mid)
        if total <= target_total or math.isclose(total, target_total):
            best = mid
            low = mid + 1
        else:
            high = mid - 1
    return MaxTuplesPerRelation(best)
