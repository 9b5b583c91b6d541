"""Trace sinks — where closed root spans go — and the span table.

A sink is any object with ``emit(span)``; :class:`InMemorySink` keeps
spans in a list (the test / programmatic default). Trace files are the
:class:`~repro.obs.context.TraceBuffer`'s JSONL export, and
:func:`format_span_table` renders one tree as the ``--stats`` table.
"""

from __future__ import annotations

from typing import Optional

from .tracer import Span

__all__ = ["InMemorySink", "format_span_table"]


class InMemorySink:
    """Collects root spans in order; the default sink for tests."""

    def __init__(self):
        self.spans: list[Span] = []

    def emit(self, span: Span) -> None:
        self.spans.append(span)

    def clear(self) -> None:
        self.spans.clear()

    @property
    def last(self) -> Optional[Span]:
        return self.spans[-1] if self.spans else None

    def find(self, name: str) -> Optional[Span]:
        """First span named *name*, searching every root depth-first."""
        for root in self.spans:
            found = root.find(name)
            if found is not None:
                return found
        return None

    def counter_total(self, name: str) -> int:
        """Sum of counter *name* across every recorded root span."""
        return sum(root.total_counters().get(name, 0) for root in self.spans)

    def __len__(self):
        return len(self.spans)

    def __repr__(self):
        return f"InMemorySink({len(self.spans)} spans)"


def format_span_table(span: Span) -> str:
    """An aligned stage/time/counter table for one span tree."""
    rows: list[tuple[str, str, str]] = []
    for node, depth in span.walk():
        counters = " ".join(
            f"{key}={value}" for key, value in sorted(node.counters.items())
        )
        rows.append(
            ("  " * depth + node.name, f"{node.duration_s * 1e3:.3f} ms", counters)
        )
    header = ("stage", "time", "counters")
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(3)
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    totals = span.total_counters()
    if totals:
        lines.append(
            "totals: "
            + " ".join(f"{k}={v}" for k, v in sorted(totals.items()))
        )
    return "\n".join(lines)

