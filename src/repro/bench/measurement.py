"""Measurement helpers shared by the benchmark suite.

The paper reports wall-clock seconds on 2005 Oracle hardware; absolute
numbers cannot be matched, so every bench reports *both* wall time and
the engine's modeled cost (abstract I/O units, see
:mod:`repro.relational.cost`) and asserts on the reproducible *shapes*:
linearity in ``c_R`` and ``n_R``, and the NaïveQ < RoundRobin ordering.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..obs import InMemorySink, Span, Tracer, format_span_table

__all__ = [
    "time_call",
    "trace_stages",
    "stage_breakdown",
    "print_stage_breakdown",
    "fit_linear",
    "LinearFit",
    "print_series",
]


def time_call(fn: Callable[[], object], repeat: int = 3) -> float:
    """Best-of-*repeat* wall time of ``fn()`` in seconds."""
    best = float("inf")
    for __ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def trace_stages(
    fn: Callable[[Tracer], object],
) -> tuple[object, Optional[Span]]:
    """Run *fn* under a fresh tracer; return its result + root span.

    *fn* receives the tracer (pass it to ``engine.ask(..., tracer=t)``
    or construct the engine with it). The span is the last root the
    call produced — for one ``ask`` that is the whole query — or None
    if the call opened no spans.

    >>> answer, root = trace_stages(lambda t: engine.ask(q, tracer=t))
    >>> root.find("database_generator").duration_s   # doctest: +SKIP
    """
    sink = InMemorySink()
    result = fn(Tracer([sink]))
    return result, sink.last


def stage_breakdown(
    fn: Callable[[Tracer], object], repeat: int = 3
) -> Optional[Span]:
    """Root span of the *fastest* of *repeat* traced runs — the
    tracing analogue of :func:`time_call`, so benches can report where
    the best-case latency goes instead of one end-to-end number.
    """
    best: Optional[Span] = None
    for __ in range(repeat):
        ___, root = trace_stages(fn)
        if root is None:
            continue
        if best is None or root.duration_s < best.duration_s:
            best = root
    return best


def print_stage_breakdown(title: str, root: Optional[Span]) -> None:
    """Print one run's per-stage table under a series-style header."""
    print(f"\n== {title} ==")
    if root is None:
        print("(no spans recorded)")
        return
    print(format_span_table(root))


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line through a series."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.slope * x + self.intercept


def fit_linear(xs: Sequence[float], ys: Sequence[float]) -> LinearFit:
    """Ordinary least squares fit; ``r_squared`` close to 1 certifies the

    "increases almost linearly" claims of Figures 8 and 9."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs")
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("degenerate x series")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    ss_res = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)
    )
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope, intercept, r_squared)


def print_series(
    title: str, header: Sequence[str], rows: Sequence[Sequence[object]]
) -> None:
    """Print one experiment's series as an aligned table (the benches'

    stdout mirrors the paper's figures as numbers)."""
    widths = [len(h) for h in header]
    text_rows = []
    for row in rows:
        text_row = [
            f"{v:.6g}" if isinstance(v, float) else str(v) for v in row
        ]
        widths = [max(w, len(t)) for w, t in zip(widths, text_row)]
        text_rows.append(text_row)
    print(f"\n== {title} ==")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for text_row in text_rows:
        print("  ".join(t.ljust(w) for t, w in zip(text_row, widths)))
