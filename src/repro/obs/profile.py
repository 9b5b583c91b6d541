"""Hot-path profiling: where does an ask actually spend its time?

:class:`StackSampler` is a statistical profiler over one *stage map*
(module → named pipeline stage, the same names the metrics histograms
use). A background thread snapshots every live thread's stack via
``sys._current_frames()`` at a fixed interval and attributes each busy
sample to the pipeline stage of its innermost ``repro`` frame;
builtin/stdlib leaf time therefore rolls up to the repro code that
called it, which is what a "vectorize the hot path" decision needs.
Samples parked in known blocking waits (queue.get, lock/condition wait,
future.result) are classified ``idle`` and excluded from attribution —
a worker waiting for work is not a hot spot. Zero per-call overhead on
the measured code; cost is one stack walk per thread per interval.

The report is ``{"samples", "stages": {...}, "fractions": {...},
"attributed_fraction": f}`` where ``attributed_fraction`` is the share
of busy samples landing in *named pipeline stages* — the quantity
``serve-bench --profile`` gates and writes to ``BENCH_precis.json``.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Optional

__all__ = [
    "PIPELINE_STAGES",
    "classify_path",
    "classify_frame",
    "StackSampler",
]

#: (path fragment, stage) — first match wins, so more specific
#: fragments come first. Fragments use '/'-normalized module paths.
_STAGE_RULES: tuple[tuple[str, str], ...] = (
    ("repro/core/database_generator", "database_generator"),
    ("repro/core/schema_generator", "schema_generator"),
    ("repro/core/result_schema", "schema_generator"),
    ("repro/graph", "schema_generator"),
    ("repro/text", "match"),
    ("repro/relational", "storage"),
    ("repro/storage", "storage"),
    ("repro/nlg", "translate"),
    ("repro/cache", "cache"),
    ("repro/core/engine", "engine"),
    ("repro/core", "engine"),
    ("repro/service", "service"),
    ("repro/obs", "observability"),
    ("repro/", "engine"),
)

#: stages that count as "named pipeline stages" for the attribution
#: gate — the work an ask is made of, as opposed to harness overhead
PIPELINE_STAGES = frozenset(
    {
        "match",
        "schema_generator",
        "database_generator",
        "storage",
        "translate",
        "cache",
        "engine",
    }
)

#: (filename fragment, function name) leaves that mean "parked, not
#: working" — attributing these would make every idle worker look hot
_IDLE_LEAVES: tuple[tuple[str, str], ...] = (
    ("threading", "wait"),
    ("threading", "_wait_for_tstate_lock"),
    ("threading", "join"),
    ("queue", "get"),
    ("queue", "put"),
    ("concurrent/futures", "result"),
    ("socket", "accept"),
    ("selectors", "select"),
    # a worker waking the event loop through its self-pipe: a syscall
    # that releases the GIL, so a sampler would catch every handoff
    ("selector_events", "_write_to_self"),
    ("selector_events", "_read_from_self"),
)


def _normalize(path: str) -> str:
    return path.replace("\\", "/")


def classify_path(filename: str) -> Optional[str]:
    """The pipeline stage of one source file, or None outside repro."""
    path = _normalize(filename)
    marker = path.rfind("/repro/")
    if marker < 0:
        return None
    tail = path[marker + 1 :]  # "repro/..."
    for fragment, stage in _STAGE_RULES:
        if tail.startswith(fragment):
            return stage
    return "engine"


def _is_idle_leaf(frame) -> bool:
    path = _normalize(frame.f_code.co_filename)
    name = frame.f_code.co_name
    for fragment, function in _IDLE_LEAVES:
        if function == name and fragment in path:
            return True
    return False


def classify_frame(frame) -> str:
    """The stage of one captured stack: ``idle`` for parked threads,
    else the stage of the innermost repro frame, else ``runtime``."""
    if _is_idle_leaf(frame):
        return "idle"
    current = frame
    while current is not None:
        stage = classify_path(current.f_code.co_filename)
        if stage is not None:
            return stage
        current = current.f_back
    return "runtime"


def _breakdown(stages: dict[str, int]) -> dict:
    """The report shape over per-stage sample counts."""
    busy = {k: v for k, v in stages.items() if k != "idle"}
    total_busy = sum(busy.values())
    attributed = sum(
        v for k, v in busy.items() if k in PIPELINE_STAGES
    )
    return {
        "samples": sum(stages.values()),
        "stages": dict(sorted(stages.items(), key=lambda kv: -kv[1])),
        "fractions": (
            {k: v / total_busy for k, v in busy.items()}
            if total_busy > 0
            else {}
        ),
        "attributed_fraction": (
            attributed / total_busy if total_busy > 0 else 0.0
        ),
    }


class StackSampler:
    """Statistical whole-process profiler (see module docstring).

    >>> sampler = StackSampler(interval_s=0.005)
    >>> sampler.start()
    >>> ...   # drive the workload
    >>> report = sampler.stop()
    >>> report["attributed_fraction"]   # share of busy samples in
    0.93                                # named pipeline stages
    """

    def __init__(self, interval_s: float = 0.002):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self._lock = threading.Lock()
        self._stages: dict[str, int] = {}
        self._samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop.is_set():
            frames = sys._current_frames()
            with self._lock:
                for ident, frame in frames.items():
                    if ident == own:
                        continue
                    stage = classify_frame(frame)
                    self._stages[stage] = self._stages.get(stage, 0) + 1
                    self._samples += 1
            del frames  # drop frame references promptly
            self._stop.wait(self.interval_s)

    def start(self) -> "StackSampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._thread = threading.Thread(
            target=self._run, name="precis-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> dict:
        """Stop sampling and return the breakdown."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        return self.breakdown()

    def breakdown(self) -> dict:
        with self._lock:
            return _breakdown(dict(self._stages))

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self):
        running = "running" if self._thread is not None else "stopped"
        return f"StackSampler({running}, {self._samples} samples)"

