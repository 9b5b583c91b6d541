"""Service-level objectives computed from the metrics registry.

An SLO is a target over an indicator: "99% of requests are answered"
(availability) or "95% of answered requests finish under 500 ms"
(latency). This module evaluates both kinds directly from the
counters, gauge and histograms :class:`~repro.obs.metrics.ServiceMetrics`
already maintains — no second measurement pipeline, no extra work on
the request path — and reports the *error-budget burn rate*: how fast
the service is spending its allowance of bad events relative to the
target. Burn 1.0 means exactly on budget; 2.0 means the budget is
going twice as fast as the objective allows; 0.0 means no bad events.

Availability counts callers, not executions: every request submitted
to the front door and already resolved is one event, good when it was
answered (partial answers included) and bad otherwise — shed at the
front door, refused with its coalesced flight, or failed.

Latency compliance is read from the cumulative bucket counts of the
``precis_service_seconds`` histogram (all priority classes together)
at the first bound >= the threshold — the same conservative rounding
Prometheus alerting uses, so a dashboard built on the text exposition
agrees with :meth:`SLOTracker.snapshot`.
"""

from __future__ import annotations

from typing import Optional

from .metrics import MetricsRegistry

__all__ = ["SLObjective", "SLOTracker"]


class SLObjective:
    """One objective: availability, or latency under a threshold."""

    __slots__ = ("name", "kind", "target", "threshold_ms", "histogram")

    def __init__(
        self,
        name: str,
        kind: str,
        target: float,
        threshold_ms: Optional[float] = None,
        histogram: str = "precis_service_seconds",
    ):
        if kind not in ("availability", "latency"):
            raise ValueError(f"unknown objective kind {kind!r}")
        if not 0.0 < target <= 1.0:
            raise ValueError("target must be in (0, 1]")
        if kind == "latency" and threshold_ms is None:
            raise ValueError("latency objectives need threshold_ms")
        self.name = name
        self.kind = kind
        self.target = target
        self.threshold_ms = threshold_ms
        self.histogram = histogram

    def __repr__(self):
        threshold = (
            f", <= {self.threshold_ms:g}ms" if self.threshold_ms else ""
        )
        return (
            f"SLObjective({self.name!r}, {self.kind}, "
            f"{self.target:.4g}{threshold})"
        )


def default_objectives() -> list[SLObjective]:
    """The stock pair: 99% answered, 95% under 500 ms."""
    return [
        SLObjective("availability-99", "availability", 0.99),
        SLObjective(
            "latency-p95-500ms", "latency", 0.95, threshold_ms=500.0
        ),
    ]


def _family(registry: MetricsRegistry, name: str, kind: str):
    for family in registry.families():
        if family.name == name and family.kind == kind:
            return family
    return None


def _total(registry: MetricsRegistry, name: str, kind: str) -> float:
    """Sum of one counter or gauge family over all its label children
    (0 when the family has never been touched)."""
    family = _family(registry, name, kind)
    if family is None:
        return 0
    return sum(child.value for child in family.children.values())


def _histogram_compliance(
    registry: MetricsRegistry, name: str, threshold_s: float
) -> tuple[Optional[float], int]:
    """(fraction of observations <= the first bound >= threshold, total
    count) over every label child; (None, 0) when the histogram is
    absent or empty."""
    family = _family(registry, name, "histogram")
    within = count = 0
    for metric in family.children.values() if family is not None else ():
        count += metric.count
        within += next(
            (
                cumulative
                for bound, cumulative in metric.buckets()
                if bound >= threshold_s
            ),
            metric.count,
        )
    if count == 0:
        return None, 0
    return within / count, count


class SLOTracker:
    """Evaluates objectives against a shared metrics registry.

    >>> from repro.obs import MetricsRegistry, ServiceMetrics
    >>> from repro.obs.slo import SLOTracker
    >>> registry = MetricsRegistry()
    >>> metrics = ServiceMetrics(registry)
    >>> metrics.submitted("interactive")
    >>> metrics.answered(0.002, "interactive"); metrics.resolved()
    >>> tracker = SLOTracker(registry)
    >>> tracker.snapshot()["objectives"][0]["compliance"]
    1.0
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        objectives: Optional[list[SLObjective]] = None,
    ):
        self.registry = registry
        self.objectives = (
            list(objectives) if objectives is not None else default_objectives()
        )

    # --------------------------------------------------------- evaluation

    def _availability(self) -> tuple[Optional[float], int, int]:
        """(fraction answered, bad events, resolved requests)."""
        total = int(
            _total(self.registry, "precis_service_requests_total", "counter")
            - _total(self.registry, "precis_service_inflight", "gauge")
        )
        if total <= 0:
            return None, 0, 0
        answered = int(
            _total(self.registry, "precis_service_answered_total", "counter")
        )
        bad = max(total - answered, 0)
        return 1.0 - bad / total, bad, total

    def evaluate(self, objective: SLObjective) -> dict:
        """One objective's current standing as a JSON-compatible dict."""
        if objective.kind == "availability":
            compliance, bad, total = self._availability()
        else:
            compliance, total = _histogram_compliance(
                self.registry,
                objective.histogram,
                objective.threshold_ms / 1e3,
            )
            bad = (
                int(round((1.0 - compliance) * total))
                if compliance is not None
                else 0
            )
        budget = 1.0 - objective.target
        if compliance is None:
            burn = 0.0
            met = True  # no traffic: nothing has violated the objective
        else:
            burn = (1.0 - compliance) / budget if budget > 0 else (
                0.0 if compliance >= 1.0 else float("inf")
            )
            met = compliance >= objective.target
        return {
            "name": objective.name,
            "kind": objective.kind,
            "target": objective.target,
            "threshold_ms": objective.threshold_ms,
            "compliance": compliance,
            "met": met,
            "error_budget": budget,
            "burn_rate": burn,
            "bad_events": bad,
            "total_events": total,
        }

    def snapshot(self) -> dict:
        """All objectives plus a one-line verdict — the artifact CI
        uploads next to the sample trace."""
        objectives = [self.evaluate(obj) for obj in self.objectives]
        return {
            "objectives": objectives,
            "all_met": all(entry["met"] for entry in objectives),
            "max_burn_rate": max(
                (entry["burn_rate"] for entry in objectives), default=0.0
            ),
        }

    def __repr__(self):
        return f"SLOTracker({len(self.objectives)} objectives)"
